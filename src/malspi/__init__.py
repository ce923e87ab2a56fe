"""Multi-agent least-squares policy iteration for graph-coupled LQR.

Exact per-agent Q-function decomposition from state/observation/cost
coupling graphs, restricted LSTDQ policy evaluation, structured policy
gradient updates, sample-complexity calculators, and an experiment harness.
"""

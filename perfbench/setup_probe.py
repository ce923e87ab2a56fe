"""Time malspi's set-up in a fresh interpreter.

    python3 setup_probe.py SRC_DIR CONFIGS_JSON

Imports malspi from SRC_DIR, then for each config document in the JSON
list parses it, builds the system, and derives the dependency sets and the
plan of every configured architecture.  Prints one JSON line with the
import and the build seconds.
"""
import json
import sys
import time


def main() -> None:
    src, configs = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    from malspi.config import parse_config
    from malspi.graphs import dependency_sets
    from malspi.policy_iteration import Architecture, architecture_plans

    imported = time.perf_counter()
    for data in configs:
        config = parse_config(data)
        system = config.build_system()
        deps = dependency_sets(system.graphs)
        for name in config.architectures:
            architecture_plans(Architecture.parse(name), deps, config.n_agents)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}))


if __name__ == "__main__":
    main()

"""One fresh interpreter's path to its first answer (the ``setup_s`` probe).

Run as ``python3 hostbench/setup_probe.py <sweep|straggler> <cache_dir>``:
imports the runner, builds the autotuner tables the sweep grid uses
(sweep only), runs one fixed cold spec through ``run_many`` on the
empty cache at ``cache_dir`` and prints its fingerprint.  The parent
times spawn to that line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(kind: str, cache_dir: str) -> int:
    from hostbench import gen
    from repro.runner import ResultCache, RunSpec, run_many

    if kind == "straggler":
        spec = RunSpec.create("dear", gen.STRAGGLER_MODEL, "10gbe",
                              compute_scales=tuple([1.0] * 63 + [1.5]))
    else:
        gen.selection_tables()
        setup = gen.SETUP_SPEC
        spec = RunSpec.create(setup["scheduler"], setup["model"], setup["cluster"],
                              **setup["options"])
    (result,) = run_many([spec], jobs=1, cache=ResultCache(root=Path(cache_dir)))
    print(spec.fingerprint, repr(result.iteration_time), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))

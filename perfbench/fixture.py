"""Write the benchmark's seeded inputs: a synthetic corpus and a checkpoint.

Run as its own process by ``run.py`` so that generating the corpus does
not count towards the measuring process's peak RSS:

    python3 perfbench/fixture.py --out DIR --seed N
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from emis.data import SynthSpec  # noqa: E402
from emis.harness import write_synthetic  # noqa: E402
from emis.head import HeadDims, init_params, save_checkpoint  # noqa: E402

DIMS = HeadDims(512, 512, 512)


def spec(seed: int) -> SynthSpec:
    return SynthSpec(dim_i=512, dim_t=512, n_attributes=24, n_train=2000, n_val=128,
                     n_eval=2048, gallery_size=15000, near_miss_count=4,
                     direction_decoy_cap=3, seed=seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    paths = write_synthetic(spec(args.seed), args.out)
    paths["checkpoint"] = str(Path(args.out) / "eval.ahp")
    save_checkpoint(init_params(DIMS, args.seed), paths["checkpoint"])
    print(json.dumps(paths, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

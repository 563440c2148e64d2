"""Check that verifier work just before a speed probe does not move it.

    python3 perfbench/probe_check.py [--pairs 30]

Run from the root of a source checkout.  The speed sampler (:mod:`speed`)
probes between pieces of verifier work, so its reading must not depend on
whether the verifier ran right before.  This alternates two kinds of
probe: one after 0.25 s of sleep, one after 0.25 s of verifying generated
classes, and prints the medians of both and of their pairwise ratio.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.provers.dispatch import default_portfolio  # noqa: E402
from repro.suite.generate import generate_corpus  # noqa: E402
from repro.verifier.engine import VerificationEngine  # noqa: E402
from speed import SpeedSampler  # noqa: E402

GAP_S = 0.25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    classes = iter(generate_corpus(100 * args.pairs, seed=5_000_000, size=10))
    engine = VerificationEngine(default_portfolio().scaled(0.4), jobs=1)
    sampler = SpeedSampler(interval=0.0)
    sampler.start()
    idle, busy = [], []
    try:
        for _ in range(args.pairs):
            time.sleep(GAP_S)
            sampler.checkpoint()
            idle.append(sampler.samples[-1][1])
            until = time.monotonic() + GAP_S
            while time.monotonic() < until:
                engine.verify_class(next(classes))
            sampler.checkpoint()
            busy.append(sampler.samples[-1][1])
    finally:
        sampler.stop()
        engine.close()
    ratios = [after_work / after_sleep for after_sleep, after_work in zip(idle, busy)]
    quartiles = statistics.quantiles(ratios, n=4)
    print(
        f"factor after sleep {statistics.median(idle):.3f}, "
        f"after verifier work {statistics.median(busy):.3f}; pairwise ratio "
        f"median {statistics.median(ratios):.3f} "
        f"(quartiles {quartiles[0]:.3f}..{quartiles[2]:.3f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

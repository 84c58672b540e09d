"""One phase of the ``campaign`` workload, in a fresh interpreter.

Usage::

    python3 perfbench/campaign_phase.py --seed N --store DIR --out FILE
        [--resumes K] [--trace SPANS_FILE]

Imports ``repro.core``, builds the smoke-scale system for ``--seed`` over
the artifact store at ``--store`` and runs the full campaign (baseline,
6 V x {M1, M2} DBA passes, Table 4 fusion).  Against an empty store this
is the cold phase; against a full one it is a warm resume, and
``--resumes K`` repeats it K times, each on a freshly built system.
Writes a JSON result to ``--out``: the monotonic time at which the first
system was ready (the parent subtracts its spawn time to get set-up
time), every ``run_campaign`` wall, rendered table text and whether the run
stayed healthy (nothing degraded or quarantined), the Table 4
fused cells and the process's peak RSS.  With ``--trace`` the layer
probes of :mod:`tracer` are installed first and the spans of the first
run are written to the file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--resumes", type=int, default=1)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer, install_campaign_probes

        tracer = Tracer()
    import repro.core as core

    if tracer is not None:
        install_campaign_probes(tracer)
    config = core.smoke_scale(args.seed)
    system = core.build_system(config, store=args.store)
    ready = time.monotonic()

    walls, texts, healthy = [], [], []
    for k in range(args.resumes):
        if k:
            system = core.build_system(config, store=args.store)
        root = tracer.open("campaign") if tracer is not None and k == 0 else None
        start = time.perf_counter()
        result = core.run_campaign(config, system=system)
        walls.append(time.perf_counter() - start)
        if root is not None:
            tracer.close(root)
        texts.append(result.to_text())
        healthy.append(not (result.degraded or result.quarantined))
    if tracer is not None:
        tracer.dump(Path(args.trace))

    bundle = system.bundle
    corpora = [bundle.train, bundle.dev, *bundle.test.values()]
    Path(args.out).write_text(
        json.dumps(
            {
                "ready_monotonic": ready,
                "campaign_s": walls,
                "texts": texts,
                "healthy": healthy,
                "dba_fused": {str(d): list(c) for d, c in result.dba_fused.items()},
                "utterances_decoded": len(system.frontends)
                * sum(len(c) for c in corpora),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

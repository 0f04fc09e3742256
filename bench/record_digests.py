"""Record the digests of every OBS op's exit code, stdout and stderr.

    python3 bench/record_digests.py

Run from the root of the checkout whose outputs are the reference; it
rewrites ``bench/obs_digests.json``. The OBS inputs do not depend on the
seed, so these digests pin every obs-cli op byte for byte, including each
cyclic variant the seed can pick.
"""

from __future__ import annotations

import argparse
import json
import shutil

import gen
import run as bench


def main() -> None:
    run = bench.Run(argparse.Namespace(workload="obs-cli", seed=0, seconds=0, trace=0))
    run.work.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        (run.work / "obs.srm").write_text(gen.obs_text(), encoding="utf-8")
        ops = [op for op in bench.obs_ops(run, {}) if op.stderr is None
               and not op.key.startswith("validate CYCLE")]
        for k in range(len(gen.obs_goal_edges())):
            (run.work / f"cycle{k}.srm").write_text(gen.obs_cyclic_variant(k),
                                                    encoding="utf-8")
            ops.append(bench.CliOp(["validate", str(run.rel / f"cycle{k}.srm")],
                                   f"validate CYCLE{k}", code=1))
        for op in ops:
            _, code, out, err = run.spawn(["-m", "paps.cli"] + op.args, "op")
            if code != op.code or b"Traceback" in err:
                raise SystemExit(f"{op.key}: exit {code}\n{err.decode()}")
            digests[op.key] = bench.output_digest(code, out, err)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    bench.OBS_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {bench.OBS_DIGESTS}")


if __name__ == "__main__":
    main()

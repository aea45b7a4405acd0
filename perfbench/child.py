"""One smolkit CLI invocation inside an instrumented process.

    python3 perfbench/child.py setup <marker-file> -- <smolkit cli args>
    python3 perfbench/child.py trace <spans-file> -- <smolkit cli args>

``setup`` stops the process at the first time step: the first call of
``RateEvaluator.loss_coefficients`` or ``RateEvaluator.rates``, which every
step makes before anything else.  It writes the monotonic clock reading of
that moment to the marker file, so the parent can subtract its own reading
taken just before the spawn.

``trace`` runs the CLI with span wrappers installed, removes them, and
writes the spans, the exit code and whether every binding was restored.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _stop_at_first_step(marker: str) -> None:
    from smolkit.coagulation import RateEvaluator

    def mark(*args, **kwargs):
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(repr(now))
        os._exit(0)

    RateEvaluator.loss_coefficients = mark
    RateEvaluator.rates = mark


def _traced(path: str, cli_args: list[str]) -> int:
    import smolkit.cli as cli

    import spans

    rec = spans.Recorder()
    spans.install(rec)
    patched = rec.installed()
    try:
        code = cli.main(cli_args)
    finally:
        rec.remove()
    restored = all(
        (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
        for owner, attr, original in patched
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "restored": restored, "spans": rec.spans}, fh)
    return code


def main(argv: list[str]) -> int:
    mode, path, sep, *cli_args = argv
    if sep != "--" or mode not in ("setup", "trace"):
        raise SystemExit("usage: child.py setup|trace <file> -- <smolkit cli args>")
    if mode == "setup":
        _stop_at_first_step(path)
        import smolkit.cli as cli

        code = cli.main(cli_args)
        # The scenario finished without taking a step; the parent sees no marker.
        return code
    return _traced(path, cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

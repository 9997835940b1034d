#!/usr/bin/env python3
"""Terminal dashboard over an arvis live-stats file.

The EventLoop rewrites ``live_stats.json`` at every snapshot boundary when
``DriverConfig::live_stats_path`` is set (the file is replaced via rename, so
a read never sees a torn write). This tool tails that file and redraws a
one-screen summary: run position, fleet admission totals, utilization and
fairness gauges, and the live state of every SLO spec.

Stdlib only — no dependencies. Usage:

    ./build/examples/trace_replay --slo-strict --out-dir run &
    python3 tools/arvis_top.py run/live_stats.json

    python3 tools/arvis_top.py --interval 0.2 run/live_stats.json
    python3 tools/arvis_top.py --once run/live_stats.json   # single frame

Exits cleanly on Ctrl-C. A missing file is not an error (the run may not
have reached its first snapshot yet); malformed JSON is skipped (can only
happen if something other than the runtime wrote the file).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

STATE_GLYPH = {"ok": "  ok  ", "blip": " BLIP ", "breach": "BREACH"}


def gauge(fraction: float, width: int = 24) -> str:
    """A [#####---] bar for a 0..1 value (clamped)."""
    fraction = min(max(fraction, 0.0), 1.0)
    filled = round(fraction * width)
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def load_stats(path: str):
    """The parsed live-stats object, or None if absent/partial."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError):
        return None


def render(stats, path: str) -> str:
    lines = []
    lines.append(f"arvis top — {path}")
    lines.append("")
    slot = stats.get("slot", 0)
    active = stats.get("active", 0)
    admitted = stats.get("admitted", 0)
    rejected = stats.get("rejected", 0)
    arrivals = admitted + rejected
    accept = admitted / arrivals if arrivals else 1.0
    lines.append(
        f"  slot {slot:>8}   active {active:>6}   "
        f"admitted {admitted:>6}   rejected {rejected:>6}"
    )
    util = stats.get("window_utilization", 0.0)
    fair = stats.get("link_fairness", 0.0)
    lines.append(f"  utilization  {gauge(util)} {util:7.1%}")
    lines.append(f"  fairness     {gauge(fair)} {fair:7.1%}")
    lines.append(f"  accept ratio {gauge(accept)} {accept:7.1%}")
    lines.append("")

    if "failover_displaced" in stats or "migrations_requested" in stats:
        displaced = stats.get("failover_displaced", 0)
        replaced = stats.get("failover_replaced", 0)
        mig_req = stats.get("migrations_requested", 0)
        mig_done = stats.get("migrations_completed", 0)
        mig_abort = stats.get("migrations_aborted", 0)
        evicted = stats.get("fault_evicted", 0)
        closed = stats.get("fault_closed", 0)
        lines.append(
            f"  failover     {displaced:>4} displaced "
            f"-> {replaced} re-placed, {evicted} evicted, {closed} closed"
        )
        lines.append(
            f"  migrations   {mig_done:>4} completed   "
            f"{mig_abort} aborted   ({mig_req} requested)"
        )
        lines.append("")

    slos = stats.get("slo", [])
    breaches = stats.get("breaches", 0)
    blips = stats.get("blips", 0)
    if slos:
        lines.append(f"  SLOs ({breaches} breaches, {blips} blips this run):")
        for spec in slos:
            state = spec.get("state", "?")
            glyph = STATE_GLYPH.get(state, f"  {state:<4}")
            lines.append(f"    [{glyph}]  {spec.get('name', '?')}")
    else:
        lines.append("  (no SLO specs armed)")

    config = stats.get("config")
    if config is not None:
        lines.append("")
        lines.append(f"  config: {json.dumps(config, sort_keys=True)}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="watch an arvis live-stats file"
    )
    parser.add_argument("path", help="live_stats.json written by the run")
    parser.add_argument(
        "--interval", type=float, default=1.0, help="refresh period, seconds"
    )
    parser.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    args = parser.parse_args()

    try:
        while True:
            stats = load_stats(args.path)
            if args.once:
                if stats is None:
                    print(f"no readable stats at {args.path}", file=sys.stderr)
                    return 1
                print(render(stats, args.path))
                return 0
            frame = (
                render(stats, args.path)
                if stats is not None
                else f"arvis top — waiting for {args.path} …"
            )
            # Clear + home, then the frame; plain escapes keep us stdlib-only.
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())

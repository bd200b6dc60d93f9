"""Command-line interface.

Subcommands:
  serve         run the coordination service on a TCP port
  inquire       submit one request document and print the response
  simulate      execute a scenario file; write the report and AP consoles
  diff-engines  compare the grants of two worlds over a request corpus

serve and inquire answer from the world in a --world file (the defaults
without one); diff-engines reads two world files. A world file has the
schema of a scenario's "world" object, read by wire.decode_world.

Exit codes: 0 on success, 2 on parse/validation failures, 3 when
--fail-on-harm is set and the scenario produced violations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .channels import ChannelId
from .errors import ScenarioParseError, ScenarioValidationError, UnsupportedBandwidth
from .scenario import load_scenario, run_scenario
from .server import ResponseCode, World, differential_compare, handle_inquiry
from .wire import (
    AfcService,
    RequestDecodeError,
    decode_request,
    decode_world,
    dumps_response,
    encode_channel,
    epoch_to_iso,
    iso_to_epoch,
    parse_json,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HARM = 3


def _read_text(path: str | Path, what: str) -> str:
    """The file's UTF-8 text; a file that cannot be read or decoded is a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioParseError(f"cannot read {what} {path}: {e}") from e


def _read_json(path: str, what: str):
    return parse_json(_read_text(path, what), f"{what} {path}")


def _world(args) -> World:
    """The world of the --world file; without one, every part's defaults."""
    return decode_world(_read_json(args.world, "world"), "world") if args.world else World()


def _resolve_scenario_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    for candidate in (name, f"{name}.json"):
        bundled = resources.files("afcsim").joinpath("scenarios", candidate)
        if bundled.is_file():
            return Path(str(bundled))
    raise ScenarioParseError(f"scenario {name!r} not found on disk or among bundled scenarios")


def _cmd_serve(args) -> int:
    w = _world(args)
    try:
        service = AfcService(w.database, w.policy, w.propagation, w.protection, host=args.host, port=args.port)
    except OSError as e:  # the port is taken, or the host is not this machine's
        raise ScenarioParseError(f"cannot listen on {args.host}:{args.port}: {e.strerror or e}") from e
    print(f"serving on {service.host}:{service.port}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _cmd_inquire(args) -> int:
    w = _world(args)
    req = decode_request(_read_json(args.request, "request"))
    server_now = req.location.gps_time
    if args.now:
        try:
            server_now = iso_to_epoch(args.now)
        except ValueError as e:
            raise ScenarioParseError(f"not an ISO-8601 time: {args.now!r} ({e})", field="--now") from e
    resp = handle_inquiry(req, server_now, w.database, w.policy, w.propagation, w.protection)
    if args.format == "json":
        print(dumps_response(resp))
    else:
        print(f"request {resp.request_id}: {resp.response_code.value}")
        if resp.response_code is ResponseCode.SUCCESS:
            issue, expire = epoch_to_iso(resp.issue_time), epoch_to_iso(resp.expire_time)
            print(f"issue {issue}  expire {expire}  country {resp.country_code}")
        print(f"grants: {len(resp.grants)}")
        for g in resp.grants:
            print(f"  {g.channel.label():>9}  cfi {g.channel.cfi:>3}  {g.max_eirp_dbm:.2f} dBm")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    path = _resolve_scenario_path(args.scenario)
    scenario = load_scenario(_read_text(path, "scenario"), name=path.stem)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if args.out:  # made before the run, so a path that cannot be a directory costs no run
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ScenarioParseError(f"cannot make directory {args.out}: {e.strerror or e}", field="--out") from e
    report = run_scenario(scenario)

    if args.out:
        target = out / "report.json"
        try:
            target.write_text(report.dumps())
            for serial, text in report.rendered_reports.items():
                target = out / f"{serial}.report.txt"
                target.write_text(text)
        except OSError as e:
            raise ScenarioParseError(f"cannot write {target}: {e.strerror or e}", field="--out") from e

    if args.format == "json":
        print(report.dumps(), end="")
    else:
        print(f"scenario {report.scenario_name} seed {report.seed}")
        for row in report.events:
            extras = {k: v for k, v in row.items() if k not in ("at", "action")}
            detail = " ".join(f"{k}={v}" for k, v in extras.items())
            print(f"  t={row['at']:>8.0f}  {row['action']:<19} {detail}".rstrip())
        for serial, row in report.ap_rows.items():
            line = f"{serial}: {row['phase']} grants={row['grantCount']}"
            if "transmitChannel" in row:
                ch = row["transmitChannel"]
                label = ChannelId(ch["bandwidthMhz"], ch["cfi"], ch.get("variant")).label()
                line += f" tx={label} cfi {ch['cfi']} @ {row['transmitEirpDbm']:.2f} dBm"
            if row["complianceViolation"]:
                line += " COMPLIANCE-VIOLATION"
            print(line)
        for r in report.harm_rows:
            mark = "VIOLATED" if r.violated else "ok"
            print(
                f"harm {r.link_id} from {r.ap_serial} on cfi {r.channel.cfi} "
                f"({r.channel.bandwidth_mhz} MHz): I/N {r.i_over_n_db:.2f} dB {mark}"
            )
        for d in report.detections:
            state = "ALARM" if d["alarm"] else "clear"
            print(f"detect [{d['type']}] {state} score {d['scoreM']:.1f} m: {d['detail']}")
        print(
            f"violations: harm={report.harm_metrics.violation_count} "
            f"compliance={sum(bool(r['complianceViolation']) for r in report.ap_rows.values())}"
        )
    if args.fail_on_harm and report.has_violations:
        return EXIT_HARM
    return EXIT_OK


def _cmd_diff_engines(args) -> int:
    corpus_obj = _read_json(args.corpus, "corpus")
    if isinstance(corpus_obj, dict):
        corpus_obj = corpus_obj.get("requests")
    if not isinstance(corpus_obj, list):
        raise ScenarioParseError("corpus must be a list of requests or {\"requests\": [...]}")
    requests = []
    for i, o in enumerate(corpus_obj):
        try:
            requests.append(decode_request(o))
        except RequestDecodeError as e:
            raise RequestDecodeError(f"requests[{i}]: {e}", e.request_id) from e
    world_a, world_b = (decode_world(_read_json(p, "engine config"), "engine") for p in (args.engine_a, args.engine_b))
    report = differential_compare(requests, world_a, world_b, tolerance_db=args.tolerance)
    if args.format == "json":
        rows = [
            {
                "requestId": r.request_id,
                **encode_channel(r.channel),
                "eirpA": r.eirp_a_dbm,
                "eirpB": r.eirp_b_dbm,
            }
            for r in report.rows
        ]
        print(json.dumps({"divergences": rows, "toleranceDb": report.tolerance_db},
                         sort_keys=True, indent=2))
    else:
        if report.empty:
            print("engines agree on all requests")
        for r in report.rows:
            a = "absent" if r.eirp_a_dbm is None else f"{r.eirp_a_dbm:.2f}"
            b = "absent" if r.eirp_b_dbm is None else f"{r.eirp_b_dbm:.2f}"
            print(
                f"{r.request_id}: {r.channel.label()} cfi {r.channel.cfi}: "
                f"A={a} dBm B={b} dBm"
            )
        print(f"divergences: {len(report.rows)}")
    return EXIT_OK


def tcp_port(text: str) -> int:
    """argparse type for --port: a TCP port number, 0 to 65535."""
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port {port} is outside 0-65535")
    return port


def tolerance_db(text: str) -> float:
    """argparse type for --tolerance: a finite dB value >= 0."""
    tolerance = float(text)
    if not 0.0 <= tolerance < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance {text} must be finite and >= 0")
    return tolerance


WORLD_HELP = 'world JSON file, as a scenario\'s "world" object (default: no incumbents, default policy and configs)'


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afcsim",
        description="6 GHz spectrum-coordination simulator: GPS-spoofing attacks and defenses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the coordination service over HTTP")
    p.add_argument("--world", help=WORLD_HELP)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=tcp_port, default=8755)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("inquire", help="submit one spectrum inquiry")
    p.add_argument("request", help="request JSON file")
    p.add_argument("--world", help=WORLD_HELP)
    p.add_argument("--now", help="server time, ISO-8601 (default: the request's gpsTime)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_inquire)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("scenario", help="scenario JSON file (or a bundled scenario name)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", help="directory for report.json and per-AP console reports")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fail-on-harm", action="store_true",
                   help="exit 3 if the run produced harm or compliance violations")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diff-engines", help="compare the grants of two worlds over a request corpus")
    p.add_argument("corpus", help="request corpus JSON file: a list of requests or {\"requests\": [...]}")
    p.add_argument("engine_a", metavar="world_a", help="world A JSON file, as for --world")
    p.add_argument("engine_b", metavar="world_b", help="world B JSON file")
    p.add_argument("--tolerance", type=tolerance_db, default=0.1, help="EIRP delta tolerance, dB")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_diff_engines)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioParseError, ScenarioValidationError, RequestDecodeError, UnsupportedBandwidth) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: run traces, run the law suite, relate traces.

``main`` returns the exit code and raises nothing for a usage error: 0
on success, 1 when an assertion, law, or relation fails, 2 on parse or
usage errors (argparse's own included, each reported on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from . import trace as trace_mod
from .memstate import CapacityPolicy, MemConfig, live_blocks
from .trace import TraceParseError, exec_trace, parse_embedding, parse_trace, relate

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _usage_error(message: str) -> NoReturn:
    """Print ``message`` and end the command with the usage-error code,
    which ``main`` returns."""
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        _usage_error(f"cannot read {what} {path}: {e}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(_read_text(path, "config file"))
    except json.JSONDecodeError as e:
        _usage_error(f"cannot read config file {path}: {e}")
    if not isinstance(data, dict):
        _usage_error(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in ("capacity_bytes", "alignment_check", "seed", "random_cases"):
            _usage_error(f"config file {path}: unknown key {json.dumps(key)}")
    # bool is a subclass of int, so the types are compared exactly.
    for key in ("capacity_bytes", "seed", "random_cases"):
        value = data.get(key)
        if value is not None and type(value) is not int:
            _usage_error(
                f"config file {path}: {key} must be an integer or null, not {json.dumps(value)}"
            )
    for key in ("capacity_bytes", "random_cases"):
        if (data.get(key) or 0) < 0:
            _usage_error(f"config file {path}: {key} must not be negative")
    value = data.get("alignment_check", True)
    if type(value) is not bool:
        _usage_error(
            f"config file {path}: alignment_check must be true or false, not {json.dumps(value)}"
        )
    return data


def _mem_config(args, file_cfg: dict) -> MemConfig:
    capacity = file_cfg.get("capacity_bytes")
    if args.capacity is not None:
        capacity = args.capacity
    check_alignment = file_cfg.get("alignment_check", True)
    if args.no_alignment_check:
        check_alignment = False
    return MemConfig(
        capacity=CapacityPolicy(max_total_bytes=capacity),
        check_alignment=check_alignment,
    )


def _parsed(path: str, what: str, parse):
    """``parse`` applied to the text of the file at ``path``, a trace or a
    relocation map (``what``); a file that cannot be read or parsed is a
    usage error."""
    text = _read_text(path, what)
    try:
        return parse(text)
    except TraceParseError as e:
        _usage_error(f"{path}: {e}")


def _cmd_run(args) -> int:
    file_cfg = _load_config_file(args.config)
    tr = _parsed(args.trace, "trace", parse_trace)
    report = exec_trace(tr, _mem_config(args, file_cfg))
    if args.verbose:
        for step in report.steps:
            mark = "ok  " if step.ok else "FAIL"
            print(f"{mark} line {step.line}: {step.note}")
    if report.ok:
        blocks = sum(1 for _ in live_blocks(report.state))
        print(
            f"ok: {len(report.steps)} statements, "
            f"{blocks} live blocks, next block {report.state.nextblock}"
        )
        return EXIT_OK
    f = report.failure
    print(f"FAIL line {f.line}: {f.note}", file=sys.stderr)
    return EXIT_FAILURE


def _cmd_laws(args) -> int:
    # Imported here so that `run` and `relate` do not load and register
    # the whole law suite.
    from .lawcheck.runner import SuiteConfig, jsonl_report, run_suite, text_report

    file_cfg = _load_config_file(args.config)
    # The laws run on the default memory config, so a config file may not
    # ask for another one.
    if file_cfg.get("capacity_bytes") is not None or not file_cfg.get("alignment_check", True):
        _usage_error(
            f"config file {args.config}: the laws run on the default memory config; "
            "capacity_bytes must be null and alignment_check true"
        )
    if args.report:
        try:
            with open(args.report, "a", encoding="utf-8"):
                pass
        except OSError as e:
            _usage_error(f"cannot write report {args.report}: {e}")
    seed = args.seed
    if seed is None:
        seed = file_cfg.get("seed")
    if seed is None:
        seed = 42
    cases = args.cases
    if cases is None:
        cases = file_cfg.get("random_cases")
    cfg = SuiteConfig(seed=seed, random_cases=cases, jobs=args.jobs)
    suite = run_suite(cfg)
    print(text_report(suite), end="")
    if args.report:
        Path(args.report).write_text(jsonl_report(suite), encoding="utf-8")
        print(f"report written to {args.report}")
    return EXIT_OK if suite.passed else EXIT_FAILURE


def _cmd_relate(args) -> int:
    file_cfg = _load_config_file(args.config)
    t1 = _parsed(args.trace1, "trace", parse_trace)
    t2 = _parsed(args.trace2, "trace", parse_trace)
    emb = _parsed(args.emb, "relocation map", parse_embedding) if args.emb else None
    try:
        report = relate(
            t1, t2, args.relation, emb=emb, stepwise=args.stepwise,
            config=_mem_config(args, file_cfg),
        )
    except ValueError as e:
        _usage_error(str(e))
    print(report.message)
    return EXIT_OK if report.ok else EXIT_FAILURE


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmem",
        description="Block/offset memory model: trace interpreter and law suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file", default=None)
    memory = argparse.ArgumentParser(add_help=False, parents=[common])
    memory.add_argument(
        "--capacity", type=_at_least(0), default=None, help="total byte budget for alloc"
    )
    memory.add_argument(
        "--no-alignment-check",
        action="store_true",
        help="drop the alignment conjunct from valid accesses",
    )

    p_run = sub.add_parser("run", parents=[memory], help="execute a trace file")
    p_run.add_argument("trace")
    p_run.add_argument("-v", "--verbose", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_laws = sub.add_parser("laws", parents=[common], help="run the law suite")
    p_laws.add_argument(
        "--cases", type=_at_least(0), default=None, help="random cases per law"
    )
    p_laws.add_argument("--seed", type=int, default=None)
    p_laws.add_argument("--report", help="write the JSON-lines report here")
    p_laws.add_argument(
        "--jobs", type=_at_least(1), default=1, help="parallel law runners"
    )
    p_laws.set_defaults(func=_cmd_laws)

    p_rel = sub.add_parser(
        "relate", parents=[memory], help="check a relation between two traces"
    )
    p_rel.add_argument("trace1")
    p_rel.add_argument("trace2")
    p_rel.add_argument("--relation", choices=trace_mod.RELATIONS, required=True)
    p_rel.add_argument("--emb", help="relocation map file for inject")
    p_rel.add_argument("--stepwise", action="store_true")
    p_rel.set_defaults(func=_cmd_relate)
    return parser


def main(argv=None) -> int:
    # argparse and _usage_error both end a command with SystemExit.
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return e.code


if __name__ == "__main__":
    sys.exit(main())

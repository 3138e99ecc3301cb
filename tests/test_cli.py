"""The command-line surface: subcommands, exit codes, config file."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockmem
from blockmem.cli import main
from blockmem.lawcheck import mutations, registry, runner

FIG = "alloc 0 8 -> $a\nstore int32 $a 0 (int 42)\nload int32 $a 0 => (int 42)\nfree $a\n"


@pytest.fixture
def fig_trace(tmp_path):
    p = tmp_path / "fig.trace"
    p.write_text(FIG)
    return str(p)


def test_run_success(fig_trace, capsys):
    assert main(["run", fig_trace]) == 0
    assert "ok:" in capsys.readouterr().out


def test_run_verbose(fig_trace, capsys):
    assert main(["run", fig_trace, "-v"]) == 0
    out = capsys.readouterr().out
    assert "block 1" in out


TRACES = Path(__file__).resolve().parents[1] / "traces"

# `blockmem run -v` on every sample trace, byte for byte, as recorded
# before a run's steps were described when read.
RUN_VERBOSE = {
    "pack_left.trace": (
        "ok   line 2: $a = block 1\n"
        "ok   line 3: $b = block 2\n"
        "ok   line 4: stored at (1, 0)\n"
        "ok   line 5: stored at (2, 0)\n"
        "ok: 4 statements, 2 live blocks, next block 3\n"
    ),
    "pack_right.trace": (
        "ok   line 2: $t = block 1\n"
        "ok   line 3: stored at (1, 0)\n"
        "ok   line 4: stored at (1, 8)\n"
        "ok: 3 statements, 1 live blocks, next block 2\n"
    ),
    "read_after_write.trace": (
        "ok   line 2: $a = block 1\n"
        "ok   line 3: stored at (1, 0)\n"
        "ok   line 4: loaded (int 42)\n"
        "ok   line 5: freed block 1\n"
        "ok: 4 statements, 0 live blocks, next block 2\n"
    ),
    "refine_left.trace": (
        "ok   line 2: $x = block 1\n"
        "ok   line 3: stored at (1, 4)\n"
        "ok: 2 statements, 1 live blocks, next block 2\n"
    ),
    "refine_right.trace": (
        "ok   line 2: $y = block 1\n"
        "ok   line 3: stored at (1, 4)\n"
        "ok   line 4: stored at (1, 0)\n"
        "ok: 3 statements, 1 live blocks, next block 2\n"
    ),
    "widen_left.trace": (
        "ok   line 2: $x = block 1\n"
        "ok   line 3: stored at (1, 0)\n"
        "ok   line 4: block 1 is valid\n"
        "ok   line 5: block 1 is valid\n"
        "ok: 4 statements, 1 live blocks, next block 2\n"
    ),
    "widen_right.trace": (
        "ok   line 3: $x = block 1\n"
        "ok   line 4: stored at (1, 0)\n"
        "ok   line 5: stored at (1, 4)\n"
        "ok   line 6: stored at (1, -8)\n"
        "ok: 4 statements, 1 live blocks, next block 2\n"
    ),
}


def test_every_sample_trace_has_a_pinned_run():
    assert sorted(p.name for p in TRACES.glob("*.trace")) == sorted(RUN_VERBOSE)


@pytest.mark.parametrize("name", sorted(RUN_VERBOSE))
def test_run_verbose_is_pinned(name, capsys):
    assert main(["run", str(TRACES / name), "-v"]) == 0
    out = capsys.readouterr()
    assert out.out == RUN_VERBOSE[name]
    assert out.err == ""


def test_run_assertion_failure(tmp_path, capsys):
    p = tmp_path / "bad.trace"
    p.write_text("alloc 0 8 -> $a\nload int32 $a 0 => (int 9)\n")
    assert main(["run", str(p)]) == 1
    assert "FAIL line 2" in capsys.readouterr().err


def test_run_parse_error(tmp_path, capsys):
    p = tmp_path / "oops.trace"
    p.write_text("load bogus $a 0 => undef\n")
    assert main(["run", str(p)]) == 2


def test_run_capacity_flag(tmp_path):
    p = tmp_path / "cap.trace"
    p.write_text("expect-fail alloc 0 64 -> $a\n")
    assert main(["run", str(p), "--capacity", "16"]) == 0
    assert main(["run", str(p)]) == 1


def test_run_config_file(tmp_path):
    p = tmp_path / "cap.trace"
    p.write_text("expect-fail alloc 0 64 -> $a\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"capacity_bytes": 16}))
    assert main(["run", str(p), "--config", str(cfg)]) == 0


def test_run_no_alignment_flag(tmp_path):
    p = tmp_path / "mis.trace"
    p.write_text("alloc 0 8 -> $a\nstore int32 $a 1 (int 5)\nload int32 $a 1 => (int 5)\n")
    assert main(["run", str(p)]) == 1
    assert main(["run", str(p), "--no-alignment-check"]) == 0


@pytest.mark.parametrize(
    "config",
    [
        "[1]",
        "not json",
        '{"capacity_bytes": "abc"}',
        '{"capacity_bytes": true}',
        '{"alignment_check": "false"}',
        '{"alignment_check": null}',
        '{"seed": 1.5}',
        '{"random_cases": "10"}',
        '{"random_cases": -1}',
        '{"capacity_bytes": -5}',
        '{"capacity": 8}',
        '{"alignment": false}',
    ],
)
def test_bad_config_is_a_usage_error(tmp_path, fig_trace, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main(["run", fig_trace, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err


def test_config_accepts_nulls_and_false(tmp_path):
    p = tmp_path / "mis.trace"
    p.write_text("alloc 0 8 -> $a\nstore int32 $a 1 (int 5)\nload int32 $a 1 => (int 5)\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"capacity_bytes": None, "seed": None, "random_cases": None, "alignment_check": False}
        )
    )
    assert main(["run", str(p), "--config", str(cfg)]) == 0


def test_negative_capacity_is_a_usage_error(fig_trace, capsys):
    assert main(["run", fig_trace, "--capacity", "-5"]) == 2
    assert main(["relate", fig_trace, fig_trace, "--relation", "lessdef", "--capacity", "-1"]) == 2
    assert "--capacity" in capsys.readouterr().err


def _suite_must_not_run(cfg):
    raise AssertionError("the law suite ran")


@pytest.mark.parametrize("flags", [["--capacity", "4"], ["--no-alignment-check"]])
def test_laws_has_no_memory_flags(monkeypatch, capsys, flags):
    # The laws run on the default memory config only.
    monkeypatch.setattr(runner, "run_suite", _suite_must_not_run)
    assert main(["laws", "--cases", "0", *flags]) == 2
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"capacity_bytes": 4}, {"alignment_check": False}])
def test_laws_rejects_a_memory_config_file(tmp_path, monkeypatch, capsys, config):
    monkeypatch.setattr(runner, "run_suite", _suite_must_not_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["laws", "--cases", "0", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err


def test_laws_unwritable_report_fails_before_the_suite(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "run_suite", _suite_must_not_run)
    for report in (tmp_path / "missing" / "laws.jsonl", tmp_path):
        assert main(["laws", "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(report) in err


def test_laws_config_null_seed_means_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None, "random_cases": None}))
    report = tmp_path / "laws.jsonl"
    main(["laws", "--cases", "1", "--config", str(cfg), "--report", str(report)])
    capsys.readouterr()
    header = json.loads(report.read_text().splitlines()[0])
    assert header["seed"] == 42 and header["random_cases"] == 1


def _stand_in_suite(monkeypatch, *results):
    """Replace ``run_suite`` by one that records its config and returns
    ``results``, every other law passing with no cases run."""
    given = {r.name: r for r in results}
    configs = []

    def run_suite(cfg):
        configs.append(cfg)
        passed = lambda law: runner.LawResult(law.name, law.module, law.groups, law.about, 0, 0)
        out = [given.get(name) or passed(law) for name, law in registry.LAWS.items()]
        return runner.SuiteResult(cfg, out, 0.0)

    monkeypatch.setattr(runner, "run_suite", run_suite)
    return configs


def test_laws_config_random_cases_apply_without_the_flag(tmp_path, monkeypatch, capsys):
    configs = _stand_in_suite(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"random_cases": 3}))
    assert main(["laws", "--config", str(cfg)]) == 0
    assert main(["laws", "--config", str(cfg), "--cases", "1"]) == 0
    assert [c.random_cases for c in configs] == [3, 1]


def test_laws_failure_exits_1_and_prints_the_counterexample(monkeypatch, capsys):
    with mutations.applied("alignment-check-dropped"):
        failing = runner.run_law(registry.law("aligned_dec"), runner.SuiteConfig(random_cases=0))
    (v,) = failing.violations
    _stand_in_suite(monkeypatch, failing)
    assert main(["laws"]) == 1
    out = capsys.readouterr().out
    pad = "\n          "
    assert "FAIL  aligned_dec  [" in out
    assert f"      violation: {v.detail}\n" in out
    assert f"      scenario:{pad}{pad.join(v.scenario.splitlines())}\n" in out
    assert f"      assignment:{pad}{v.assignment}\n" in out
    n = len(registry.LAWS)
    assert f"{n} laws, {n - 1} passed, 1 failed" in out and "\nfailed: aligned_dec\n" in out


@pytest.mark.parametrize("what", ["trace", "config", "relocation map", "binary trace"])
def test_unreadable_file_is_a_usage_error(tmp_path, fig_trace, capsys, what):
    missing = str(tmp_path / "missing")
    binary = tmp_path / "binary.trace"
    binary.write_bytes(b"\xff\xfe\x00")
    argv = {
        "trace": ["run", missing],
        "config": ["run", fig_trace, "--config", missing],
        "relocation map": ["relate", fig_trace, fig_trace, "--relation", "inject", "--emb", missing],
        "binary trace": ["run", str(binary)],
    }[what]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read ") and err.count("\n") == 1


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [["--cases", "-1"], ["--jobs", "0"], ["--jobs", "-3"], ["--jobs", "two"]],
)
def test_laws_rejects_bad_counts(argv, capsys):
    assert main(["laws", *argv]) == 2
    assert f"argument {argv[0]}:" in capsys.readouterr().err


def test_laws_small_run_and_report(tmp_path, capsys):
    report = tmp_path / "laws.jsonl"
    assert main(["laws", "--cases", "5", "--seed", "1", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "laws," in out and "passed" in out
    lines = report.read_text().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds[0] == "suite" and kinds[-1] == "summary"
    assert kinds.count("law") >= 40

    second = tmp_path / "laws2.jsonl"
    assert main(["laws", "--cases", "5", "--seed", "1", "--report", str(second)]) == 0
    assert report.read_bytes() == second.read_bytes()


def test_shipped_traces(capsys):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "traces"
    assert main(["run", str(root / "read_after_write.trace")]) == 0
    assert (
        main(
            [
                "relate",
                str(root / "refine_left.trace"),
                str(root / "refine_right.trace"),
                "--relation",
                "lessdef",
            ]
        )
        == 0
    )
    # The right trace defines more than the left, so the converse fails.
    assert (
        main(
            [
                "relate",
                str(root / "refine_right.trace"),
                str(root / "refine_left.trace"),
                "--relation",
                "lessdef",
            ]
        )
        == 1
    )
    assert (
        main(
            [
                "relate",
                str(root / "pack_left.trace"),
                str(root / "pack_right.trace"),
                "--relation",
                "inject",
                "--emb",
                str(root / "pack.emb"),
            ]
        )
        == 0
    )
    # The right trace widens the left one's block and stores into the
    # margin: an extension, but no refinement, and not the converse.
    widen = [str(root / "widen_left.trace"), str(root / "widen_right.trace")]
    for traces, relation, flags, code in [
        (widen, "extends", [], 0),
        (widen, "extends", ["--stepwise"], 0),
        (widen, "lessdef", [], 1),
        (widen[::-1], "extends", [], 1),
    ]:
        assert main(["relate", *traces, "--relation", relation, *flags]) == code
    capsys.readouterr()


def test_relate_subcommand(tmp_path, capsys):
    t1 = tmp_path / "a.trace"
    t2 = tmp_path / "b.trace"
    t1.write_text("alloc 0 8 -> $x\nstore int32 $x 0 (int 1)\n")
    t2.write_text("alloc 0 8 -> $y\nstore int32 $y 0 (int 1)\n")
    assert main(["relate", str(t1), str(t2), "--relation", "lessdef"]) == 0
    assert main(["relate", str(t1), str(t2), "--relation", "extends", "--stepwise"]) == 0

    emb = tmp_path / "map.emb"
    emb.write_text("[emb]\n1 -> 1 + 0\n")
    assert main(["relate", str(t1), str(t2), "--relation", "inject", "--emb", str(emb)]) == 0
    assert main(["relate", str(t1), str(t2), "--relation", "inject"]) == 2

    t3 = tmp_path / "c.trace"
    t3.write_text("alloc 0 8 -> $z\nstore int32 $z 0 (int 2)\n")
    assert main(["relate", str(t1), str(t3), "--relation", "lessdef"]) == 1

    stepwise_inject = ["--relation", "inject", "--emb", str(emb), "--stepwise"]
    assert main(["relate", str(t1), str(t2), *stepwise_inject]) == 0
    assert main(["relate", str(t1), str(t3), *stepwise_inject]) == 1
    assert "inject fails after statement 2" in capsys.readouterr().out


def test_relate_rejects_two_different_emb_sections(tmp_path, capsys):
    t1 = tmp_path / "a.trace"
    t2 = tmp_path / "b.trace"
    t1.write_text("alloc 0 8 -> $x\n[emb]\n1 -> 1 + 8\n")
    t2.write_text("alloc 8 16 -> $y\n[emb]\n1 -> 1 + 0\n")
    assert main(["relate", str(t1), str(t2), "--relation", "inject"]) == 2
    assert "different [emb] sections" in capsys.readouterr().err
    t2.write_text("alloc 8 16 -> $y\n[emb]\n1 -> 1 + 8\n")
    assert main(["relate", str(t1), str(t2), "--relation", "inject"]) == 0


@pytest.mark.parametrize("relation", ["lessdef", "extends"])
def test_relate_rejects_a_map_outside_inject(relation, tmp_path, capsys):
    t = tmp_path / "a.trace"
    t.write_text("alloc 0 8 -> $x\n")
    emb = tmp_path / "map.emb"
    emb.write_text("1 -> 1 + 0\n")
    assert main(["relate", str(t), str(t), "--relation", relation, "--emb", str(emb)]) == 2
    assert "relocation map is for inject" in capsys.readouterr().err
    assert main(["relate", str(t), str(t), "--relation", relation]) == 0


@pytest.mark.parametrize("relation", ["lessdef", "extends"])
def test_relate_rejects_an_emb_section_outside_inject(relation, tmp_path, capsys):
    mapped = tmp_path / "mapped.trace"
    mapped.write_text("alloc 0 8 -> $x\n[emb]\n1 -> 1 + 8\n")
    plain = tmp_path / "plain.trace"
    plain.write_text("alloc 0 8 -> $x\n")
    for left, right in ((mapped, mapped), (plain, mapped)):
        for flags in ([], ["--stepwise"]):
            args = ["relate", str(left), str(right), "--relation", relation, *flags]
            assert main(args) == 2
            assert "[emb] section is for inject" in capsys.readouterr().err
    assert main(["relate", str(plain), str(plain), "--relation", relation]) == 0


def test_relate_rejects_malformed_relocation_maps(tmp_path, capsys):
    t = tmp_path / "a.trace"
    t.write_text("alloc 0 8 -> $x\n")
    emb = tmp_path / "map.emb"
    for text, where in [
        ("1 -> 1 + 0 junk\n", "line 1, column 12"),
        ("[emb] extra\n1 -> 1 + 0\n", "line 1, column 7"),
        ("1 -> 1 + 0\n1 -> 1 + 8\n", "line 2, column 1"),
    ]:
        emb.write_text(text)
        assert main(["relate", str(t), str(t), "--relation", "inject", "--emb", str(emb)]) == 2
        assert where in capsys.readouterr().err


def test_cli_import_leaves_law_suite_unloaded():
    # `run` and `relate` never touch the laws; only `laws` imports them.
    # The trace interpreter is imported by the law suite, never the reverse.
    src = str(Path(blockmem.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, blockmem.cli; "
        "print([m for m in sys.modules if m.split('.')[:2] == ['blockmem', 'lawcheck']])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


SMOKE = TRACES.parent / "tests" / "smoke" / "commands.txt"


def test_smoke_commands_exit_as_listed(monkeypatch, capsys):
    # CI runs the same list through the installed console script.
    monkeypatch.chdir(TRACES.parent)
    commands = [
        line.split() for line in SMOKE.read_text().splitlines() if line and line[0] != "#"
    ]
    assert commands
    runs = [(" ".join(args), int(status), main(args)) for status, *args in commands]
    assert [run for run in runs if run[1] != run[2]] == []

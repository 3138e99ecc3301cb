"""Every documented seeded bug is caught by at least one named law."""

from pathlib import Path

import pytest

from blockmem import memstate
from blockmem.lawcheck import mutations, registry
from blockmem.lawcheck.runner import SuiteConfig, run_law
from blockmem.trace import exec_trace, parse_trace


def test_seven_mutations_documented():
    assert len(mutations.MUTATIONS) == 7
    for mut in mutations.MUTATIONS.values():
        assert mut.caught_by
        for name in mut.caught_by:
            assert name in registry.LAWS


@pytest.mark.parametrize("name", sorted(mutations.MUTATIONS))
def test_mutation_is_detected(name):
    caught = mutations.detecting_laws(name)
    assert caught, f"{name} was not detected by its documented laws"


def test_mutation_context_restores_the_original():
    original = memstate.free
    with mutations.applied("free-validity-unchecked"):
        assert memstate.free is not original
    assert memstate.free is original
    # and the model is healthy again
    assert run_law(registry.law("valid_block_free_"), SuiteConfig(random_cases=200)).passed


def test_alignment_mutation_reaches_the_trace_interpreter():
    # `blockmem run` stores and loads through memstate.store/load, so the
    # rebound access check must reach them, not only valid_access.
    succeed = parse_trace("alloc 0 8 -> $a\nstore int32 $a 2 (int 7)\nload int32 $a 2 => (int 7)")
    fail = parse_trace(
        "alloc 0 8 -> $a\nexpect-fail store int32 $a 2 (int 7)\nexpect-fail load int32 $a 2"
    )
    assert not exec_trace(succeed).ok and exec_trace(fail).ok
    with mutations.applied("alignment-check-dropped"):
        assert exec_trace(succeed).ok and not exec_trace(fail).ok


def test_continuation_mutation_reaches_the_trace_interpreter():
    # A run writes a block's cell map in place after its first store into
    # it, through cells.write, so the rebound writer must reach those
    # stores, not only store_contents.  The float64 store at 0 is such an
    # in-place write; its footprint covers the int32 at 4.
    text = "alloc 0 8 -> $a\nstore int32 $a 4 (int 2)\nstore float64 $a 0 (float 0)\n"
    cleared = parse_trace(text + "load int32 $a 4 => undef")
    stale = parse_trace(text + "load int32 $a 4 => (int 2)")
    assert exec_trace(cleared).ok and not exec_trace(stale).ok
    with mutations.applied("continuation-clear-skipped"):
        assert exec_trace(stale).ok and not exec_trace(cleared).ok


def test_run_append_mutation_reaches_the_trace_interpreter():
    # `blockmem run` allocates on a run, through memstate._put's in-place
    # append, so a run that appends a slot without moving nextblock hands
    # the second alloc the first one's id, and its bounds are not its own.
    path = Path(__file__).parent / "smoke" / "run_path.trace"
    trace = parse_trace(path.read_text())
    assert exec_trace(trace).ok
    with mutations.applied("run-append-keeps-nextblock"):
        assert not exec_trace(trace).ok


# The (mutation, law) pairs whose exhaustive phase alone, at the default
# max_exhaustive, catches the mutation; recorded, for all but the run-path
# mutation, when each law still had a hand-written enumerator, so that
# re-scoping the exhaustive phase cannot lose one of them.
KILLED_WITHOUT_RANDOM_CASES = {
    "alignment-check-dropped": ("aligned_dec", "valid_pointer_dec"),
    "continuation-clear-skipped": (
        "store_contents_cont",
        "load_store_contents_same",
        "load_store_contents_overlap",
    ),
    "freed-id-reused": (
        "alloc_parallel_emb",
        "alloc_left_unmapped_emb",
        "alloc_left_mapped_emb",
        "alloc_left_unmapped_inject",
        "alloc_left_mapped_inject",
        "alloc_list_alloc_inject",
        "alloc_fresh_block_",
    ),
    "sign-extension-zeroed": ("load_store_contents_same",),
    "free-validity-unchecked": ("valid_block_free_",),
    "inject-overlap-unchecked": ("store_mapped_inject", "storev_inject"),
    "run-append-keeps-nextblock": (
        "alloc_parallel_emb",
        "alloc_left_unmapped_emb",
        "alloc_left_mapped_emb",
        "alloc_left_unmapped_inject",
        "alloc_left_mapped_inject",
        "alloc_list_alloc_inject",
        "alloc_result_bounds_",
    ),
}


@pytest.mark.parametrize(
    "mutation, law",
    [(m, law) for m, laws in KILLED_WITHOUT_RANDOM_CASES.items() for law in laws],
)
def test_exhaustive_phase_alone_catches(mutation, law):
    with mutations.applied(mutation):
        result = run_law(registry.law(law), SuiteConfig(random_cases=0))
    assert not result.passed, f"the exhaustive phase of {law} misses {mutation}"

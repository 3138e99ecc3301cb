"""Documented seeded bugs for mutation-sensitivity checks.

Each mutation swaps exactly one operation for a broken variant by
rebinding the module attribute, so every caller, including the model's
own internal calls, sees the bug.  ``caught_by`` names the laws expected
to flag it; the check harness runs exactly those.  The suite's memo
caches are cleared around each application so no healthy state survives
into a mutated run or vice versa.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

from .. import cells, chunks, memstate, relations
from ..chunks import Chunk
from ..memstate import MemState
from . import laws_base, registry
from .runner import SuiteConfig, run_law


@dataclass(frozen=True)
class Mutation:
    name: str
    description: str
    module: object
    attribute: str
    make: Callable
    caught_by: tuple


def _no_alignment(orig):
    def access_slot(m, t, b, i):
        unaligned = replace(m.config, check_alignment=False)
        return orig(replace(m, config=unaligned), t, b, i)

    return access_slot


def _no_continuation_clear(orig):
    def write(f, t, ofs, v):
        f[ofs] = cells.Datum(t, v)

    return write


def _reuse_freed(orig):
    def alloc(m: MemState, low, high):
        freed = memstate.freed_blocks(m)
        if not freed:
            return orig(m, low, high)
        request = high - low if high > low else 0
        if not m.config.capacity.admits(m.allocated_bytes, request):
            return None
        b = min(freed)
        m = memstate.set_block(m, b, low, high, True)
        return b, memstate.set_contents(m, b, cells.EMPTY_CONTENTS)

    return alloc


def _zero_extend_signed(orig):
    def convert(v, t):
        if type(v) is chunks.Vint and t in (Chunk.INT8S, Chunk.INT16S):
            width = 8 if t is Chunk.INT8S else 16
            return chunks.Vint(v.value & ((1 << width) - 1))
        return orig(v, t)

    return convert


def _free_unchecked(orig):
    def free(m: MemState, b):
        return orig(m, b) or m

    return free


def _inject_without_no_overlap(orig):
    def mem_inject(emb, m1, m2):
        for _, delta in emb.values():
            if delta % relations.DELTA_ALIGNMENT != 0:
                return False
        return relations.mem_emb(emb, m1, m2)

    return mem_inject


MUTATIONS: dict[str, Mutation] = {
    m.name: m
    for m in (
        Mutation(
            "alignment-check-dropped",
            "the access check loses its alignment conjunct",
            memstate,
            "access_slot",
            _no_alignment,
            ("aligned_dec", "valid_pointer_dec"),
        ),
        Mutation(
            "continuation-clear-skipped",
            "the cell write sets the datum without clearing its footprint, "
            "in store_contents and in a run's in-place stores alike",
            cells,
            "write",
            _no_continuation_clear,
            ("load_store_contents_overlap", "store_contents_cont"),
        ),
        Mutation(
            "freed-id-reused",
            "alloc recycles the smallest freed block id",
            memstate,
            "alloc",
            _reuse_freed,
            ("alloc_fresh_block_",),
        ),
        Mutation(
            "sign-extension-zeroed",
            "convert zero-extends at the signed narrow chunks",
            chunks,
            "convert",
            _zero_extend_signed,
            ("load_store_contents_same", "load_store_same_"),
        ),
        Mutation(
            "free-validity-unchecked",
            "free succeeds on any block id",
            memstate,
            "free",
            _free_unchecked,
            ("valid_block_free_",),
        ),
        Mutation(
            "inject-overlap-unchecked",
            "mem_inject drops the no-overlap side condition",
            relations,
            "mem_inject",
            _inject_without_no_overlap,
            ("store_mapped_inject",),
        ),
    )
}


@contextmanager
def applied(name: str):
    mut = MUTATIONS[name]
    original = getattr(mut.module, mut.attribute)
    laws_base.clear_caches()
    setattr(mut.module, mut.attribute, mut.make(original))
    try:
        yield mut
    finally:
        setattr(mut.module, mut.attribute, original)
        laws_base.clear_caches()


def detecting_laws(name: str, cfg: SuiteConfig | None = None) -> list[str]:
    """Run the mutation's documented catcher laws under the mutation and
    return the names that flag it."""
    mut = MUTATIONS[name]
    cfg = cfg or SuiteConfig(cases_relation=1500)
    caught = []
    with applied(name):
        for law_name in mut.caught_by:
            if not run_law(registry.law(law_name), cfg).passed:
                caught.append(law_name)
    return caught

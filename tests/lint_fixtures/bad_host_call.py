"""Fixture: violates R3 — host-only arena calls inside device code."""

from repro.simt.instructions import Branch, Store


def d_alloc_in_kernel(arena, nwords):
    base = arena.alloc(nwords)  # R3: allocation is host setup
    yield Branch()
    return base


def d_host_view_write(tree, addr, value):
    tree.arena.host_view(addr, 1)[0] = value  # R3: bypasses the Op stream
    yield Store(addr, value)


def d_host_plane_is_fine(tree, addr):
    # reading the raw backing array to charge an equivalent Store is the
    # documented host-mutation idiom: no finding
    yield Store(addr, int(tree.arena.data[addr]))

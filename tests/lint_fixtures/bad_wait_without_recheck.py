"""Fixture: violates R5 — WaitGE yields without a while re-check."""

from repro.simt.instructions import WaitGE


def d_wait_once(seq, n):
    seq[0] += 1
    yield WaitGE(seq, 0, n)  # R5: resumes only once the barrier holds


def d_wait_under_if(seq, n):
    seq[0] += 1
    if seq[0] < n:
        yield WaitGE(seq, 0, n)  # R5: an if tests once, it does not re-test


def d_wait_in_for(seq, n):
    for it in range(2):
        seq[it] += 1
        yield WaitGE(seq, it, n)  # R5: a for loop is no re-check either


def d_wait_in_while_is_fine(seq, n):
    seq[0] += 1
    while seq[0] < n:
        yield WaitGE(seq, 0, n)

"""The shared chunk/block driver of ``lyapexp.mc``, without Monte Carlo."""

import re
import time
import warnings

import numpy as np
import pytest

from lyapexp import mc
from lyapexp.errors import (InvalidParameter, TruncationOverflow,
                            ValidationError)


def test_batch_means_needs_two_replica_means():
    for means in (np.array([0.5]), np.ones((2, 2))):
        with pytest.raises(ValueError, match="at least two replica means"):
            mc.batch_means(means, "x")


@pytest.mark.parametrize("means, shown", [
    ([1.0, np.nan], "nan +- nan"),
    ([1.0, np.inf], "inf +- nan"),
    ([1.0, 1e308, -1e308, 1.0], "0.25 +- inf"),
])
def test_batch_means_refuses_a_statistic_that_is_not_finite(means, shown):
    """A mean or an error bar that is not finite is refused, named by
    its label, and with no warning first."""
    with warnings.catch_warnings(), pytest.raises(
            TruncationOverflow,
            match=rf"^E\[X\] at eps 0.5 is {re.escape(shown)}, not finite"):
        warnings.simplefilter("error")
        mc.batch_means(np.array(means), "E[X] at eps 0.5")


@pytest.mark.parametrize("threads", [1, 3])
def test_run_blocks_returns_results_in_block_order(threads):
    """Block 0 finishes last on a pool; its result still comes first."""
    def worker(b, start, stop):
        time.sleep(0.05 if b == 0 else 0.0)
        return b, start, stop

    n = 2 * mc.BLOCK_WIDTH + 5
    assert mc.run_blocks(worker, n, threads) == mc.replica_blocks(n)


@pytest.mark.parametrize("threads", [1, 3])
def test_run_blocks_raises_a_worker_error(threads):
    def worker(b, start, stop):
        if b == 1:
            raise ArithmeticError(f"block {b}")
        return b

    with pytest.raises(ArithmeticError, match="block 1"):
        mc.run_blocks(worker, 3 * mc.BLOCK_WIDTH, threads)


def _constant_growth(lead):
    """Kernel whose post-step row j has growth e when kept, 0 when not.

    A dropped row that reached the sum would make the mean -inf, and a
    kept row that missed it would pull the mean below 1.
    """
    def kernel(gen, width, pieces):
        j = 0
        for span, keep0 in pieces:
            gen.random((span, width))
            post = j + 1 + np.arange(span)
            rows = np.where(post > lead, np.e, 0.0)[:, None] * np.ones(width)
            # the burn-in rows in one slice and each kept row in its own:
            # the driver continues each piece's column sum across them
            yield from np.split(rows, range(max(keep0, 1), span))
            j += span
        return width, j
    return kernel


# 301 kept rows are no multiple of a span; a whole piece of kept rows
# crosses a piece boundary unless the lead is a multiple of the span
@pytest.mark.parametrize("kept", [301, mc.TIME_CHUNK])
@pytest.mark.parametrize("lead", [0, 5, 2048, 2100])
def test_constant_growth_gives_unit_means(lead, kept):
    replicas = 600   # two blocks, the second partial
    means, returns = mc.run_chunked(_constant_growth(lead), kept * replicas,
                                    replicas, lead, seed=0)
    assert means.shape == (replicas,)
    assert np.all(means == 1.0)
    assert returns == [(512, lead + kept), (88, lead + kept)]


def test_pieces_follow_the_fixed_schedule():
    seen = []

    def kernel(gen, width, pieces):
        seen.append(list(pieces))
        for span, keep0 in pieces:
            keep0 = min(keep0, span)
            yield from (np.ones((rows, width))
                        for rows in (keep0, span - keep0) if rows)

    mc.run_chunked(kernel, 64 * 100, 64, 2100, seed=0)
    assert seen == [[(2048, 2100), (152, 52)]]


def _randomly_sliced(width_seed):
    """Kernel yielding positive random growth factors in slices cut at
    keep0 and, in a block at least two wide, at random rows; returns the
    Kahan sum over pieces of each piece's kept logs summed at once."""
    def kernel(gen, width, pieces):
        cuts_rng = np.random.default_rng([width_seed, width])
        acc = mc.KahanSum(width)
        for span, keep0 in pieces:
            rows = gen.random((span, width)) + 0.5
            if keep0 < span:
                acc.add(np.log(rows[keep0:]).sum(axis=0))
            extra = cuts_rng.integers(1, span, 4) if width > 1 else ()
            cuts = sorted({0, min(keep0, span), span, *extra})
            for a, b in zip(cuts, cuts[1:]):
                yield rows[a:b]
        return acc.total
    return kernel


def test_slices_fold_to_the_bits_of_one_sum():
    """For every block width from 2 to 600, at row counts from 2 to 151
    and across two pieces, the column sum continued across arbitrary
    slices is the same bits as one sum over the piece: numpy sums a
    (rows, width >= 2) array along axis 0 row by row.  A run of 513 to
    600 replicas has a second block, 1 to 88 wide, and a one-wide block
    yields its kept rows of a piece in one slice."""
    for width in range(2, 601):
        kept = 2 + width % 150
        lead = mc.TIME_CHUNK - 20 if width % 50 == 0 else width % 7
        means, sums = mc.run_chunked(_randomly_sliced(width), kept * width,
                                     width, lead, seed=width)
        assert np.array_equal(means.view(np.int64),
                              (np.concatenate(sums) / kept).view(np.int64))


def _whole_pieces(gen, width, pieces):
    for span, _ in pieces:
        yield np.ones((span, width))


def _past_the_end(gen, width, pieces):
    for span, _ in pieces:
        yield np.ones((span + 1, width))


def _one_slice_too_many(gen, width, pieces):
    yield from _whole_pieces(gen, width, pieces)
    yield np.ones((1, width))


@pytest.mark.parametrize("kernel, lead, message", [
    (_whole_pieces, 5, "across the first kept row"),
    (_past_the_end, 0, "or a piece's end"),
    (_one_slice_too_many, 0, "more slices than scheduled")],
    ids=["crosses_keep0", "past_the_end", "one_too_many"])
def test_slices_must_not_cross_the_first_kept_row(kernel, lead, message):
    """A slice that crosses the first kept row or a piece's end, and one
    slice more than scheduled, are refused."""
    with pytest.raises(RuntimeError, match=message):
        mc.run_chunked(kernel, 64 * 100, 64, lead, seed=0)


@pytest.mark.parametrize("n_steps, replicas, lead", [
    (100, 1, 0), (10, 64, 0), (0, 64, 0), (1000, 64, -1)])
def test_bad_run_sizes_rejected(n_steps, replicas, lead):
    with pytest.raises(InvalidParameter) as info:
        mc.run_chunked(_constant_growth(0), n_steps, replicas, lead, seed=0)
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, ValidationError)


def test_run_size_limits_admit_the_limit_itself():
    """A replica may run MAX_STEPS steps in all, lead included, and a run
    may have MAX_REPLICAS replicas; one more is refused, naming the
    limit.  The check schedules nothing, so probing it costs no memory."""
    mc.check_run_size(2 * mc.MAX_STEPS, 2, 0)
    mc.check_run_size(mc.MAX_REPLICAS, mc.MAX_REPLICAS, 0)
    for args in ((2 * mc.MAX_STEPS, 2, 1), (2 * mc.MAX_STEPS + 1, 2, 0)):
        with pytest.raises(InvalidParameter,
                           match=f"exceed the limit of {mc.MAX_STEPS}$"):
            mc.check_run_size(*args)
    with pytest.raises(InvalidParameter,
                       match=f"exceed the limit of {mc.MAX_REPLICAS}$"):
        mc.check_run_size(mc.MAX_REPLICAS + 1, mc.MAX_REPLICAS + 1, 0)

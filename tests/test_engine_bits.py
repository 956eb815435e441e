"""Bit-exact pins of every Monte Carlo engine.

The hex strings below were recorded before the four engines were moved
onto the shared chunk/block driver of ``lyapexp.mc``; they must never
change unless a PR changes the layout on purpose.  The cases cover a
lead (burn-in or discard) longer than one time chunk, two replica
blocks with a partial last one, a cutoff that bites, log-space moments,
at 1 and 3 threads, and both forms of block piece the kernels take: a
finite law's atom tables with per-cell indices (``blocks_d2``, Ising
with a two-point field), and a scalar-driven law's one-row tables with
0/1 masks and one drawn Z per cell (Ising with a uniform field, and
``from_scalar`` of it in the path digests).  Ising range 4 has d = 15,
where numpy's pairwise sums group differently from a plain left-to-right
sum.  The two ``ising4_uniform`` pins were re-recorded when those laws
moved from 256-row time pieces to the ``TIME_CHUNK`` pieces of every
other engine.

``DIGESTS`` pins the SHA-256 of block outputs that are whole arrays:
coupled vector paths, the atom tables of discrete Ising block laws, and
the per-replica means of a run whose last block is one replica wide.
Print both tables afresh with

    PYTHONPATH=src python tests/test_engine_bits.py
"""

import functools
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from lyapexp import chain, highdim, ising, lyapunov, mc
from lyapexp import distributions as dist

SPECS = Path(__file__).resolve().parents[1] / "specs"
TWO_POINT = dist.load_spec(SPECS / "two_point.json")
HEAVY = dist.load_spec(SPECS / "heavy_half.json")
UNIF = dist.load_spec(SPECS / "uniform_sub.json")
BLOCKS_D2 = highdim.load_blocks(SPECS / "blocks_d2.json")
UNIF_BLOCKS = highdim.from_scalar(UNIF)
THREE_ATOM = dist.finite_discrete(["1/4", "3/4", "5/2"],
                                  ["1/2", "3/10", "1/5"])
ISING_2 = ising.map_to_blocks(
    ising.IsingModel(2, (1.0, 1.5), 1.0, UNIF))
ISING_4_TWO = ising.map_to_blocks(
    ising.IsingModel(4, (1.0, 1.5, 0.5, 2.0), 1.25, TWO_POINT))
ISING_4_UNIF = ising.map_to_blocks(
    ising.IsingModel(4, (1.0, 1.5, 0.5, 2.0), 1.25, UNIF))

# Two blocks (512 + 88 replicas), a lead past the 2048-step chunk, and a
# per-replica length that is not a multiple of any piece span.
WIDE = dict(replicas=600, n_steps=600 * 37 + 5)
LEAD = 2100
GAMMAS = (1.0, 1.5, 2.0, 3.0, 6.0)


def _est(e):
    return (e.value, e.stderr, e.n)


def _stats(s):
    return (*s.moments, *s.moment_stderrs, *s.trunc_moments,
            *s.trunc_stderrs, s.log1p_mean, s.log1p_stderr, s.max_x,
            s.n_kept)


def _general(law, eps, method, threads):
    return _est(highdim.lyapunov_general(
        law, eps, method=method, seed=9, burn_in=LEAD, discard=LEAD,
        threads=threads, **WIDE))


def _range4(mapped, method, threads):
    law, eps = mapped
    return _est(highdim.lyapunov_general(
        law, eps, method=method, n_steps=64 * 300 + 7,
        seed=8, burn_in=150, discard=150, replicas=64, threads=threads))


CASES = {
    "direct_wide": lambda th: _est(lyapunov.lyapunov_direct(
        TWO_POINT, 0.375, seed=11, discard=LEAD, threads=th, **WIDE)),
    "direct_default": lambda th: _est(lyapunov.lyapunov_direct(
        UNIF, -0.25, n_steps=20_000, seed=3, threads=th)),
    "invariant_wide": lambda th: _est(lyapunov.lyapunov_invariant(
        TWO_POINT, 0.375, seed=11, burn_in=LEAD, threads=th, **WIDE)),
    "invariant_short_burn": lambda th: _est(lyapunov.lyapunov_invariant(
        HEAVY, 0.125, n_steps=30_000, seed=4, burn_in=5, threads=th)),
    "chain_wide_cutoff": lambda th: _stats(chain.simulate_chain(
        HEAVY, chain.ChainConfig(eps=0.25, seed=5, burn_in=LEAD,
                                 threads=th, **WIDE),
        gammas=GAMMAS, b_cutoff=0.5)),
    "chain_no_burn": lambda th: _stats(chain.simulate_chain(
        UNIF, chain.ChainConfig(eps=0.5, n_steps=20_000, seed=6, burn_in=0,
                                threads=th),
        gammas=GAMMAS, b_cutoff=0.1)),
    "blocks_d2_direct": lambda th: _general(
        BLOCKS_D2, 0.3, lyapunov.DIRECT, th),
    "blocks_d2_invariant": lambda th: _general(
        BLOCKS_D2, 0.3, lyapunov.INVARIANT, th),
    "ising2_direct": lambda th: _general(*ISING_2, lyapunov.DIRECT, th),
    "ising2_invariant": lambda th: _general(
        *ISING_2, lyapunov.INVARIANT, th),
    "ising4_two_point_direct": lambda th: _range4(
        ISING_4_TWO, lyapunov.DIRECT, th),
    "ising4_two_point_invariant": lambda th: _range4(
        ISING_4_TWO, lyapunov.INVARIANT, th),
    "ising4_uniform_direct": lambda th: _range4(
        ISING_4_UNIF, lyapunov.DIRECT, th),
    "ising4_uniform_invariant": lambda th: _range4(
        ISING_4_UNIF, lyapunov.INVARIANT, th),
}


def _paths(law, eps):
    return highdim.coupled_paths(law, (eps, 0.0), n=700, seed=5)


def _atoms(model):
    law, eps = ising.map_to_blocks(model)
    cum = np.cumsum([float(w) for w in law.weights])
    cum[-1] = 1.0
    return ([eps], cum, law.ls, law.cs, law.ns)


def _one_wide(method):
    """Per-replica means of a run on blocks 512 and 1 wide: a one-wide
    block sums a piece's kept rows at once, pairwise, and its replica's
    mean is too small a part of the estimate to show that."""
    return mc.run_chunked(
        functools.partial(highdim._block_kernel, highdim.from_scalar(HEAVY),
                          0.375, method),
        513 * 10_000, 513, 100, seed=12)[0]


ARRAYS = {
    "per_replica_one_wide_direct": lambda: _one_wide(lyapunov.DIRECT),
    "per_replica_one_wide_invariant": lambda: _one_wide(lyapunov.INVARIANT),
    "paths_blocks_d2_eps0": lambda: _paths(BLOCKS_D2, 0.0),
    "paths_blocks_d2_eps_half": lambda: _paths(BLOCKS_D2, 0.5),
    "paths_uniform_eps0": lambda: _paths(UNIF_BLOCKS, 0.0),
    "paths_uniform_eps_half": lambda: _paths(UNIF_BLOCKS, 0.5),
    "atoms_ising2_two_point": lambda: _atoms(
        ising.IsingModel(2, (1.0, 1.5), 1.0, TWO_POINT)),
    "atoms_ising3_three_atom": lambda: _atoms(
        ising.IsingModel(3, (0.5, 1.0, math.inf), 0.75, THREE_ATOM)),
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _hex(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


PINNED = {
    "blocks_d2_direct": [
        "0x1.da764d03cd1c6p-3",
        "0x1.178acf07144d0p-10",
        22800,
    ],
    "blocks_d2_invariant": [
        "0x1.d9a6e9e8326d4p-3",
        "0x1.0f71e1b385695p-10",
        22800,
    ],
    "chain_no_burn": [
        "0x1.7038b00ba072fp-1",
        "0x1.541a9e84363b4p-1",
        "0x1.46cf1059a414ep-1",
        "0x1.489577b5d5f17p-1",
        "0x1.ecbd73c33c0f0p-1",
        "0x1.65210d3980263p-9",
        "0x1.d8b3bc52b9307p-9",
        "0x1.21d3d4ca369d9p-8",
        "0x1.94fe8d44ef4b0p-8",
        "0x1.0c95f08756612p-6",
        "0x1.fe1f2244a97f2p-5",
        "0x1.119ffe99ef54cp-5",
        "0x1.2a723ca5919eap-6",
        "0x1.723146bacaa35p-8",
        "0x1.b9fb770d26e76p-13",
        "0x1.b64a7f7d8c718p-11",
        "0x1.f9cf8b3ca3706p-12",
        "0x1.290a00c4ca7c5p-12",
        "0x1.a705e3cf525e5p-14",
        "0x1.58f8e69583168p-18",
        "0x1.4bfbb583f6810p-3",
        "0x1.27ced4197e2b8p-11",
        "0x1.a598ef04c3ce7p+0",
        20032,
    ],
    "chain_wide_cutoff": [
        "0x1.4ee7354ed29d0p+2",
        "0x1.6060c24372f3fp+4",
        "0x1.b8a1690cbb898p+6",
        "0x1.b802e6167066ap+11",
        "0x1.a85b48e98b182p+27",
        "0x1.75e44ca80e454p-4",
        "0x1.165195dd26f78p-1",
        "0x1.ae403077b0c99p+1",
        "0x1.147e7204132aap+7",
        "0x1.797f0fd6a0027p+23",
        "0x1.6b0f4d0a26733p+0",
        "0x1.52f084bf5fd4fp+1",
        "0x1.6350421d16dd7p+2",
        "0x1.c65095976aeacp+4",
        "0x1.4926a8c8db823p+12",
        "0x1.16d35a092c5dap-7",
        "0x1.47d1a2890b293p-6",
        "0x1.8587f16a337a2p-5",
        "0x1.250256b4eecacp-2",
        "0x1.3a897e278900ep+6",
        "0x1.ca325f66db0d0p-3",
        "0x1.9e4986a00bdadp-9",
        "0x1.8a4e6cc38c59ep+5",
        22800,
    ],
    "direct_default": [
        "0x1.b6a20f4981249p-5",
        "0x1.31fc33249e522p-12",
        20032,
    ],
    "direct_wide": [
        "0x1.80f3f574a8a82p-3",
        "0x1.039a22a9ae164p-10",
        22800,
    ],
    "invariant_short_burn": [
        "0x1.e987bda2a1e38p-4",
        "0x1.3cf1b18a91b9dp-9",
        30016,
    ],
    "invariant_wide": [
        "0x1.813d133046333p-3",
        "0x1.04974ccdd2f88p-10",
        22800,
    ],
    "ising2_direct": [
        "0x1.b54b56aac2103p-8",
        "0x1.5afbb72c0606ap-15",
        22800,
    ],
    "ising2_invariant": [
        "0x1.b54b56aac2103p-8",
        "0x1.5afbb72c06069p-15",
        22800,
    ],
    "ising4_two_point_direct": [
        "0x1.033c27e66b68ep-10",
        "0x1.4df0f8bad476ep-16",
        19264,
    ],
    "ising4_two_point_invariant": [
        "0x1.033c27e66b68ep-10",
        "0x1.4df0f8bad476cp-16",
        19264,
    ],
    "ising4_uniform_direct": [
        "0x1.5d83ed1b0af3ep-12",
        "0x1.329544b9274a6p-19",
        19264,
    ],
    "ising4_uniform_invariant": [
        "0x1.5d83ed1b0af3ep-12",
        "0x1.329544b9274a4p-19",
        19264,
    ],
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_output_bits_pinned(name, threads):
    assert _hex(CASES[name](threads)) == PINNED[name]


DIGESTS = {
    "atoms_ising2_two_point":
        "fdecbc76466b0d7ac3de5283606e91ab068fb60cfdfde7124fed8756c2ffd79c",
    "atoms_ising3_three_atom":
        "d83d390121372c5eb619f22e0941bf89d5ad0db9797dc6e28246efae1c95f667",
    "per_replica_one_wide_direct":
        "ea9e12463b06637a1bd7c020fadfc67fc7dfd44319ef6686783e02c15b0c91ab",
    "per_replica_one_wide_invariant":
        "3b5b43b0971ea9e46bd0d14ff6b3d6bed151234f1e36ab36e6601dbd9d5401a2",
    "paths_blocks_d2_eps0":
        "7e540166baf014a37a3ffd746e36e5de49c1431833147411caddc39babb55240",
    "paths_blocks_d2_eps_half":
        "224d54f8608799cb651e680ea10ba94c54dc32a19046390d222348903aef672c",
    "paths_uniform_eps0":
        "2564f8cf4d82b63c4e44f2f0e64c39eb61570b617c5fc2d0cffe35398fb99811",
    "paths_uniform_eps_half":
        "0f4319b2a1ee234cab9923215df329ef7fa1b12f5af13ad34b0909ba792fd95a",
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_block_array_digests_pinned(name):
    assert _digest(ARRAYS[name]()) == DIGESTS[name]


if __name__ == "__main__":
    print("PINNED = {")
    for name in sorted(CASES):
        print(f"    {name!r}: [")
        for val in _hex(CASES[name](1)):
            print(f"        {val!r},")
        print("    ],")
    print("}")
    print("DIGESTS = {")
    for name in sorted(ARRAYS):
        print(f"    {name!r}:\n        {_digest(ARRAYS[name]())!r},")
    print("}")

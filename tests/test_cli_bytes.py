"""Byte pins of the command line's result documents.

For one small run of every subcommand and mode, the SHA-256 of stdout
and of every ``--out`` file except ``manifest.json`` (which carries the
wall time).  ``test_engine_bits.py`` pins the engines' floats; this file
pins what the CLI makes of them: the document layout, key order, number
formatting, CSV and .dat files.  The digests must not change unless a
change alters the output layout on purpose; print the table afresh with

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lyapexp import cli

SPECS = Path(__file__).resolve().parents[1] / "specs"
TWO_POINT = str(SPECS / "two_point.json")
CRITICAL = str(SPECS / "critical_two.json")
UNIFORM = str(SPECS / "uniform_sub.json")
CONSTANT = str(SPECS / "constant_law.json")
BLOCKS_D2 = str(SPECS / "blocks_d2.json")
SHORT = ("--burn-in", "500", "--discard", "300")

ARGV = {
    "coeffs_exact": ("coeffs", "--spec", TWO_POINT, "--order", "2",
                     "--exact"),
    "coeffs_moments": ("coeffs", "--moments", "3/4,3/4,1/2", "--order", "3",
                       "--json"),
    "alpha": ("alpha", "--spec", CRITICAL),
    "chain_grid": ("chain", "--spec", UNIFORM, "--eps-grid", "2^-2..2^-4",
                   "--gamma", "1,2,4.5", "--steps", "20000", "--seed", "4",
                   "--burn-in", "500", "--emit-plot"),
    "chain_dominance": ("chain", "--spec", TWO_POINT, "--dominance",
                        "--eps", "1/4", "--eps2", "1/2", "--steps", "5000",
                        "--seeds", "0..2"),
    "lyap_both": ("lyap", "--spec", TWO_POINT, "--eps", "1/4",
                  "--method", "both", "--steps", "20000", "--seed", "2",
                  *SHORT),
    "lyap_decoupled": ("lyap", "--spec", TWO_POINT, "--eps", "1",
                       "--method", "direct", "--steps", "5000", *SHORT),
    "lyap_deterministic": ("lyap", "--spec", CONSTANT, "--eps", "1/2",
                           "--method", "invariant", "--steps", "5000",
                           *SHORT),
    "fit_log_model": ("fit", "--spec", CRITICAL, "--order", "1",
                      "--eps-grid", "2^-2..2^-5", "--steps", "2e5",
                      "--min-points", "3"),
    "fit_per_point": ("fit", "--spec", CRITICAL, "--order", "1",
                      "--eps-grid", "2^-2..2^-4", "--steps",
                      "5000,10000,20000", "--no-fit", "--emit-plot",
                      "--burn-in", "500"),
    "highdim_eps_both": ("highdim", "--blocks", BLOCKS_D2, "--eps", "1/4",
                         "--method", "both", "--steps", "20000", *SHORT),
    "highdim_K": ("highdim", "--blocks", BLOCKS_D2, "--K", "1",
                  "--eps-grid", "2^-2..2^-4", "--steps", "10000",
                  "--method", "direct", "--emit-plot", *SHORT),
    "ising_direct": ("ising", "--range", "2", "--couplings", "1.0,0.5",
                     "--T", "1", "--field-law", UNIFORM, "--method",
                     "direct", "--steps", "10000", *SHORT),
    "ising_scan": ("ising", "--range", "1", "--couplings", "1.0", "--T", "1",
                   "--field-law", TWO_POINT, "--scan", "--scales",
                   "1,1/2,1/4,1/8", "--scan-order", "2", "--method",
                   "invariant", "--steps", "10000", "--emit-plot", *SHORT),
    "selftest": ("selftest",),
}

EXPECTED = {
    'coeffs_exact': {
        'stdout':
            '6f0ab2e815cb447e886d3dd460c0810710bfc5acb7beb5c545999d959c480ad8',
        'coeffs.csv':
            '93905a8facf0e5e0f169ad08bb2b03c8ceb552d6d6b4788f2528110289d72195',
        'coeffs.json':
            'bf91736fcc999d46b4c1a3e47645a6cddab1b3a1ccde2cc4e33c2f4bd23f898e',
    },
    'coeffs_moments': {
        'stdout':
            'b285ec7a701c272b1f88d305041a89be4d7043986c7271e93036a22930ee67d9',
        'coeffs.csv':
            '3e59ef4c4fc680c5ab51ffe9c9a52a0adf1f17aa924a94715b4484cca3b603ae',
        'coeffs.json':
            'b285ec7a701c272b1f88d305041a89be4d7043986c7271e93036a22930ee67d9',
    },
    'alpha': {
        'stdout':
            '020cb6efc9978ea9a9d513da3640a0722d233278900e385c6d693476a6024da9',
        'alpha.json':
            '020cb6efc9978ea9a9d513da3640a0722d233278900e385c6d693476a6024da9',
    },
    'chain_grid': {
        'stdout':
            'acb13079c8ce7d86977877a5851ecd86e75939f15da444a67d632d84dc001727',
        'chain.csv':
            'a2af70271b502f20c0ea30d6b5cdc95ac62471bd22e27ce6e5e89fb55d351323',
        'chain.json':
            'acb13079c8ce7d86977877a5851ecd86e75939f15da444a67d632d84dc001727',
        'moment_g1.dat':
            '2ec1661eedc5170d4525bc7f6c036227b10b97102f73e8aadcce3d16be1ee38d',
        'moment_g2.dat':
            '50c585b4ac20b0f511932a5914b9386b322c6be9352e788b9e554d64f9c709d5',
        'moment_g4.5.dat':
            '07cdc486ee5e7bc4ba029ca3e9df01dba4ddb3dc70f48cc82f97e617eaf4296a',
    },
    'chain_dominance': {
        'stdout':
            'e4a8d955b1ed6f011fcea4c177331d82886a7ebca0cddf2d6c3f8d7dca69b8d8',
        'dominance.json':
            'e4a8d955b1ed6f011fcea4c177331d82886a7ebca0cddf2d6c3f8d7dca69b8d8',
    },
    'lyap_both': {
        'stdout':
            'ae37528fbe00b1efcfebf19082faf36d9e2a5182621768b352984c949450314b',
        'lyap.json':
            'ae37528fbe00b1efcfebf19082faf36d9e2a5182621768b352984c949450314b',
    },
    'lyap_decoupled': {
        'stdout':
            '4a6c8ca4d20a2dcddc908cfbcf14f25ce7522b444df49a44ab7575d800de3481',
        'lyap.json':
            '4a6c8ca4d20a2dcddc908cfbcf14f25ce7522b444df49a44ab7575d800de3481',
    },
    'lyap_deterministic': {
        'stdout':
            '874f60b78882b90cde5f9d3aada5d3d623ec51b6b703a73a48c18cf7776d69b1',
        'lyap.json':
            '874f60b78882b90cde5f9d3aada5d3d623ec51b6b703a73a48c18cf7776d69b1',
    },
    'fit_log_model': {
        'stdout':
            '2c960c44910b95726a4ab9969b8ce0c135430075941c06421b04e67b5b7c6935',
        'fit.json':
            '2c960c44910b95726a4ab9969b8ce0c135430075941c06421b04e67b5b7c6935',
        'series.csv':
            '4420baa60150ebe7d586b9fb437ba81d3e14dc1918856572a82c9de4b7bc6933',
    },
    'fit_per_point': {
        'stdout':
            'a250da398fd6036dea5c212cf7a9972449aead1c89ffef549a1c89162ff359c1',
        'fit.json':
            'a250da398fd6036dea5c212cf7a9972449aead1c89ffef549a1c89162ff359c1',
        'residual.dat':
            '0555183d9eebed46c4af0346554dbb5e74bccf7686bb4562d8f54976b3097f09',
        'series.csv':
            '974af9d7366edc75d981af89552ac374ebd8e3027830208ce9d8c0ff5915b7da',
    },
    'highdim_eps_both': {
        'stdout':
            'ba14573915b69da3350e538adb8cfa67042849fb88606a1f940a495f659d7093',
        'highdim.json':
            'ba14573915b69da3350e538adb8cfa67042849fb88606a1f940a495f659d7093',
    },
    'highdim_K': {
        'stdout':
            'cb301213025b3efced901637a9347c6f2ea24ae919848b6744d3759ce33a473c',
        'expansion.csv':
            '6f7a2777e76bce46b6a08ea207aed8a94773b16e5d9f29c6b584266f736adeb4',
        'expansion.dat':
            '48ee039b07bb8470dd9b826be06bd532ab9f3e71f0d99185a6ad4d892bb60821',
        'highdim.json':
            'cb301213025b3efced901637a9347c6f2ea24ae919848b6744d3759ce33a473c',
    },
    'ising_direct': {
        'stdout':
            '689faf1096c7ce33de8fb5efd0d22efa3e004194f3b407e68436629b168f059d',
        'ising.json':
            '689faf1096c7ce33de8fb5efd0d22efa3e004194f3b407e68436629b168f059d',
    },
    'ising_scan': {
        'stdout':
            'f0dc920451e03eda7c1e421c80aec2eb6e16ffe998df621406b611ceadd1974a',
        'ising.json':
            'f0dc920451e03eda7c1e421c80aec2eb6e16ffe998df621406b611ceadd1974a',
        'scan.csv':
            'df539f891d5e04c5d970453de27cea1b5f8a8f5768dead8153d92d5d752a92a2',
        'scan.dat':
            '56f595eeee2aa4c8e779ce4b6c0b604bc1811943cda7fcc52be003fec38fc8f3',
    },
    'selftest': {
        'stdout':
            '892274b9beba0081de40d247e546fbb4e65850971a7fc5036fb3400d415773c7',
        'selftest.json':
            '288ac3981f7e0ece30eec05db8090c3d960e0248683b2cc3d2d6aec0a34a7a0b',
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, out_dir: Path) -> dict:
    """{file: sha256} of one run of ``ARGV[name]``; stdout is "stdout"."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.dispatch([*ARGV[name], "--out", str(out_dir)])
    assert code == 0, name
    found = {"stdout": _sha(buf.getvalue().encode("utf-8"))}
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.json":
            found[path.name] = _sha(path.read_bytes())
    return found


@pytest.mark.parametrize("name", sorted(ARGV))
def test_output_bytes(name, tmp_path):
    assert digests(name, tmp_path / name) == EXPECTED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("EXPECTED = {")
        for name in ARGV:
            print(f"    {name!r}: {{")
            for key, val in digests(name, Path(tmp) / name).items():
                print(f"        {key!r}:\n            {val!r},")
            print("    },")
        print("}")

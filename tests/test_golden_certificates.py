"""Pinned certificates of `filtration find`.

The `digest` field of a certificate is the sha256 of everything in it except
`timestamp`: the embedded inputs, the parameters and every output (the
filtration's digits, the admissibility report, the per-piece reports).  The
values below were produced by the code before diagonal stability was
certified with one joint elimination per group element; a refactor that
keeps them keeps every certificate byte-identical apart from `timestamp`.
The exact-mode `ordinary_torus` values changed once, when admissibility of a
module with a toric part became the extension node (`"mode": "extension"`,
the quotient's exact report nested in it) instead of a sample of the full
module's submodules; only `outputs.admissibility` moved in those six.
The four sampled-mode `ordinary_torus` values changed once, when the sampled
family stopped treating two subspaces as one because their echelon units
agree mod 2^8: each keeps 2 or 3 more subspaces that differ from a listed
one at a certified digit, and only the ledger and `samples` of
`outputs.admissibility` moved.
All twenty changed once, when the certificate format became v2
(`isofilt-filtration-certificate-v2`): the leaves that check does not
re-derive were deleted (`version`, `operation`, `input_digests`, and
`graded`, `stable`, `lagrangian`, `cocycle`, `descent_targets`,
`descent_datum` and `descent_datum_guaranteed` under `outputs`) and the
schema was renamed; every kept leaf is byte-identical to its v1 value.

The four problems are the fixture triples that the benchmark and the other
CLI tests run; each is pinned in exact mode at three seeds and in sampled
mode (budget 50, precision 32) at two.
"""

import json
import os

import pytest

from isofilt.cli import main

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")

SAMPLED = ["--mode", "sampled", "--budget", "50", "--precision", "32"]

# (module, group, extension) -> {(mode, seed): digest}
GOLDEN = {
    ("ss2", "c2_scalar_dim2", "ext_sqrt2_c2"): {
        ("exact", 1): "ce2a703d65f560a19583b74768c2c3809d8955ef93a6d5a0150ca18344aff819",
        ("exact", 7): "085086ce0ee5944240ab7cd7b87d3528f193036e229c2dc96cfccbd3af5afe6d",
        ("exact", 123456): "36d391a5380b45d4a96903ad1514c71ff378057d4c077239f37d54145026e7ca",
        ("sampled", 9): "968b76192f11d4f2d3a35e19fdb157aee013cd7c4f47c0449762f061dd947886",
        ("sampled", 11): "4751046a7b5583d703617d0e7807a63af426fc5e2352048ac66cfd2eeaa20726",
    },
    ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic"): {
        ("exact", 1): "517155126de3e4d54d071cc6338214d14fb55f4ea1cc34429e04c2850f7c5a6e",
        ("exact", 7): "c008ab9c52d40f957b36a85ae8154bdde5f64835b32b1d1664b99e997d3ea697",
        ("exact", 123456): "5ad1adbe984b7083608fb70481f56c8a4790994bc33520001401a8997a2ef74e",
        ("sampled", 9): "da3aaa3b279d3a900a632b6e5aeb5cc57153553aaea1f1a575acb0e9254cf1ca",
        ("sampled", 11): "c1c2b200e21f6d40c34fded0e0e4af322825d32dbf0e8df973b83b008e745282",
    },
    ("ordinary_torus", "trivial_group_dim3", "ext_trivial"): {
        ("exact", 1): "4e853a18115ee5d7c48d2f8de68be67a2846b751bd87b8dfa10414686d8f2323",
        ("exact", 7): "7c39cac3a961b07cfc2c40a6d413ecf4b5f88183c1caa7cf8584674ab168d955",
        ("exact", 123456): "657cd5eaccbb43372d884a93c1243daa2877c360d922be7834bc5681eda311f2",
        ("sampled", 9): "2aef58d8e6e2fd413cb4130cefb48db2f298c0ecd767402955286a356add3976",
        ("sampled", 11): "f5372b5e0337bcdc3d4ce9d9df8902983ca6842ca469ad58ca577ad2bfd959e4",
    },
    ("ordinary_torus", "c2_scalar_dim3", "ext_sqrt2_c2"): {
        ("exact", 1): "a31a341674684129bf1479cda416d90578927243550031a6555e825dc3cb9f70",
        ("exact", 7): "c7cbf9a81bb357645c918352d819979c4ef4bf0069ad029a053513af8f7e7686",
        ("exact", 123456): "15344e9544d6e8fb86911083ae3586810726fec081e7c09b3178b90fd9ee9c70",
        ("sampled", 9): "66cdb838e30cb928709a00a0b4b3e294ce4434f14480c1063989374e4c69eed2",
        ("sampled", 11): "32d9d78d4636a0e866c9e3eefb529b3a6a61d220bf7423486c59cbb16d43b9d0",
    },
}

CASES = [(problem, mode, seed, digest)
         for problem, pinned in GOLDEN.items()
         for (mode, seed), digest in pinned.items()]


@pytest.mark.parametrize(
    "problem,mode,seed,digest", CASES,
    ids=[f"{problem[0]}+{problem[1]}-{mode}-{seed}"
         for problem, mode, seed, _ in CASES])
def test_find_certificate_digest_is_pinned(tmp_path, capsys, problem, mode,
                                           seed, digest):
    module, group, extension = (os.path.join(FIX, f"{stem}.json")
                                for stem in problem)
    cert = tmp_path / "cert.json"
    code = main(["filtration", "find", "--module", module, "--group", group,
                 "--extension", extension, "--seed", str(seed),
                 *(SAMPLED if mode == "sampled" else []), "--out", str(cert)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(cert.read_text())["digest"] == digest

"""Pinned certificates of `filtration find`.

The `digest` field of a certificate is the sha256 of everything in it except
`timestamp`: the embedded inputs, the parameters and every output (the
filtration's digits, the admissibility ledger, the descent datum, ...).  The
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
        ("exact", 1): "e16370e8ea8491d5ecac9081db6d2564138aabdbcff648e2ce48d5b7e2519cf0",
        ("exact", 7): "f37a95bfe2ff843fc127918bf09b63548e361ee6f72120baead48557aa43ba9c",
        ("exact", 123456): "259604b5364fafde44ea477bb8f9b3756e1fd563170ba6f36572193bf423b897",
        ("sampled", 9): "b0d9cf2dd309d68dc0e361df87c61bb0844ec33d3ffc7ce8a56b37b6c3da6a69",
        ("sampled", 11): "c81f127d9354bd7a68a385bddfc4a5eb0bc93376a09cc4e76269bd28e8a52054",
    },
    ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic"): {
        ("exact", 1): "bc0ecf68dc9f1c7ac83079b7f668406ee9b16af1f30be5a8513186bb91111139",
        ("exact", 7): "c00da25eb4f7349f5ac408ff91ec0ac8b719b784421ffe7607667caaf9a22c5f",
        ("exact", 123456): "16ee3063f49c4c0a0b9b89c68c9e168e40b40bd7618520d34ba7b60b98b74944",
        ("sampled", 9): "ff723f63d5c70ecd6f53aa660fa24893bd3390ccc91a275107542988a0529781",
        ("sampled", 11): "bfcbc7331e772ef1425aacc896549297f59d338c782563ead4fbf68223175b7a",
    },
    ("ordinary_torus", "trivial_group_dim3", "ext_trivial"): {
        ("exact", 1): "209badd2b1d4aced56661beec0fa85aa85c7b86ceeaa74c8456a25a8788f57f6",
        ("exact", 7): "63c538706fac27364f62b8f51403af3aab6f6de0386669acf2b41a52177ad92a",
        ("exact", 123456): "7cfa0c6c447e7baa37d648ef1e2901c477a934e71f6b61f1cbbe8df09bbca942",
        ("sampled", 9): "59e453e39662c1021ee87af38fcbfd1ef123a47d6542c83cfac189dc51a9033f",
        ("sampled", 11): "4012b1e3070821054566ad3f69edf64708d654bddeaec92ed386fdf944c1f3bc",
    },
    ("ordinary_torus", "c2_scalar_dim3", "ext_sqrt2_c2"): {
        ("exact", 1): "39ddf211b275b295eba0a41cdc522abb729ebbada72b07fd0c29af5870346d3b",
        ("exact", 7): "6dfb63a560733835d1feacaba336d664ac57714f7497520f2061f39baaba2ffb",
        ("exact", 123456): "6e5521776f8511168426b5b8344717d1be093061dcdb12f24089c04354e9dea3",
        ("sampled", 9): "ac4278af68fe0daa12e4910fd72b138cd2074d4fa220fcc7fb4a25e6ebaa5650",
        ("sampled", 11): "1734b60a2780fe3002a428afbd8cdbb9b41cf0ae10a14c8031180515624da8c5",
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

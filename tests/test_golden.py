"""Golden CLI outputs: every subcommand's stdout, byte for byte.

Each case is an argv, the expected exit code, the sha256 of stdout and, for
``-o``, the sha256 of the written file.  ``{d}`` in an argv is a scratch
directory holding ``t.json`` (the lattice of ``T[1,1]_2``) and ``r.json``
(its quiver representation), which the commands that read files take.
"""

import hashlib

import pytest

from kleinlat.cli import main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

CASES = [
    (("build-tube", "--tube", "special:1", "--j", "1", "--m", "2", "-o", "{d}/out-t.json"), 0, EMPTY,
     "bb9e9a17f05b9243b9034e00311c8abef13c4f1f12a26ef55da83d2730aca02e"),
    (("build-tube", "--tube", "hom:t^2+t+1", "--m", "1"), 0,
     "6a1dbe50ecfd65f00465fbeebd4aca7d4fa40bfbc4578647d2161c1a3a0b305a", None),
    (("phi", "-m", "{d}/t.json", "-o", "{d}/out-r.json"), 0, EMPTY,
     "5752cf2d44604e3eb8faaf6608f25224fc6448ba019c15c2f30b98106c50ffa9"),
    (("phi", "-m", "{d}/t.json"), 0,
     "5752cf2d44604e3eb8faaf6608f25224fc6448ba019c15c2f30b98106c50ffa9", None),
    (("lattice-of", "-r", "{d}/r.json"), 0,
     "bb9e9a17f05b9243b9034e00311c8abef13c4f1f12a26ef55da83d2730aca02e", None),
    (("dim", "-m", "{d}/t.json"), 0,
     "c5fc45aa99cd6e9d63a5ee7ceae9ceca8c50926289677b6ac7329fea01fff9ec", None),
    (("--format", "text", "cohomology", "-m", "{d}/t.json", "-n", "2"), 0,
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", None),
    (("cohomology", "-m", "{d}/t.json", "-n", "3"), 0,
     "db7aba6c05387ef8e609421961738c7589b7be2227dff3bcd426fb5c92271dda", None),
    (("xi-verify", "--tube", "hom:t^2+t+1", "--m", "2", "--degrees", "1..4"), 0,
     "e63e0eb216856fa6f15e253d2d52efb07c856abf8dfc18426c1b4d1a003c9ad8", None),
    (("eta-verify", "--tube", "hom:t^2+t+1", "--m", "2", "--degrees", "1..4", "--level", "3"), 0,
     "14dc86a0e16a6e4d2efcb3a1f5d81259e206cbbc9bc2838b6e9a8278f524f04d", None),
    (("syzygy", "-m", "{d}/t.json"), 0,
     "70f327872dc39953b49efba289b2203d58909df4207446a29eca7009ecc9aec8", None),
    (("endring-check", "--tube", "special:1", "--j", "1", "--m", "2"), 0,
     "d31f1774d2ffdb86c760f97b9fd98e247eb32eb281d42ca1cfc55868ddc12c4d", None),
    (("s3", "--which", "t3", "--poly", "t^3+t+1"), 0,
     "80e7d2bb7d2884db58b4e889b6fa4c0f7d8f256a701605f15440a85c436051a8", None),
    (("s3", "--which", "t2", "--tube", "inf"), 0,
     "dcba398bb92a1676097825f7935d0ff4126b281087facb1fc8f875c226d32dd2", None),
    (("canonical", "--summands", "hom:t^2+t+1:2", "--coords", "1,0,0,0", "-n", "2"), 0,
     "35d7820a5c3f8c71c93c1699db979034eb8316b96df1f7d3d78f9599033092f6", None),
    # a cancellation between two summands of one tube, lattice side
    (("canonical", "--summands", "special:1:1:3,special:1:1:1", "--coords", "1,0,1", "-n", "2"), 0,
     "5c4eb2441bdd2dbe0820850566456626db872f3babdfca3237590b34810982d8", None),
    (("canonical", "--summands", "special:1:1:2", "--coords", "1", "-o", "{d}/cf.json"), 0, EMPTY,
     "5de73df5590377ea5a1ab65ffc42b788f914874d34880fb59762ddc211934041"),
    # the same on the dual side
    (("co-canonical", "--summands", "special:1:1:3,special:1:1:1", "--coords", "0,1,1", "-n", "3"), 0,
     "f7e0ff3d076cdc4b5bca94ebca9187a2fd24392b3cea17a413b9f6a762a86d62", None),
    (("co-canonical", "--summands", "hom:t^2+t+1:1,special:0:2:2", "--coords", "1,1,1", "-n", "2"), 0,
     "1716f7d52cab2b6e3825b376e4a61f76e5e7af5671c92376d1bc4fd51a11e540", None),
    (("present-cr", "--summands", "special:1:1:1", "--coords", "1"), 0,
     "34751cf9cd3011441dd3a83fce3d18e7e71e8c4ea2b46f069471fe3dd90f4466", None),
    (("--format", "text", "present-cr", "--summands", "special:1:1:1", "--coords", "1"), 0,
     "8610d6dad0f24fec3c9c6c30fb38113c559a76273e620defab157ee6f3362ad7", None),
    (("present-ch", "--summands", "hom:t^2+t+1:2", "--coords", "1,0,0,0"), 0,
     "0cb60c654b298212d8c8b107614b8262dbcfb7302a4430bd795e2b85f5c6cd26", None),
    (("--format", "text", "present-ch", "--summands", "hom:t^2+t+1:2", "--coords", "1,0,0,0"), 0,
     "8c12edf6dea4cad778aaa6b4a9bd336a562a852809b366f7248ca70f84f429dd", None),
    (("classify", "--summands1", "special:1:1:2", "--coords1", "1",
      "--summands2", "special:inf:1:2", "--coords2", "1"), 0,
     "db2741faa224ac0a3f589b9ac8882f4f15b2a847cd9dbc9ec1e87e567b38581e", None),
    (("canonical", "--summands", "special:1:1:2", "--coords", "1,1,1"), 2, EMPTY, None),
    (("verify-all", "--fast", "--max-m", "2", "--degrees", "1..2"), 0,
     "4637740bbc770548226eb4c7c8b2d2c2c9fc5215a145969302fd7d0914414c0f", None),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_cases_cover_every_subcommand():
    from kleinlat.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    used = {next(a for a in argv if not a.startswith("-") and a != "text") for argv, *_ in CASES}
    assert used == set(sub.choices)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    assert main(["build-tube", "--tube", "special:1", "--j", "1", "--m", "2", "-o", str(d / "t.json")]) == 0
    assert main(["phi", "-m", str(d / "t.json"), "-o", str(d / "r.json")]) == 0
    return d


@pytest.mark.parametrize("argv,code,stdout_sha,file_sha", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_golden_output(argv, code, stdout_sha, file_sha, scratch, capsys):
    args = [a.replace("{d}", str(scratch)) for a in argv]
    assert main(args) == code
    assert _sha(capsys.readouterr().out.encode()) == stdout_sha
    if file_sha is not None:
        path = args[args.index("-o") + 1]
        with open(path, "rb") as fh:
            assert _sha(fh.read()) == file_sha

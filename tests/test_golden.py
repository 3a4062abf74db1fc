"""Pinned output bytes: each CLI call on fixed inputs against the sha256 of
what it printed, its exit code and the file it wrote.

A hash covers stdout, stderr (with the input directory replaced by a fixed
token), the exit code and the ``--out`` bytes, if any. A change in any byte of
any of them fails the call's test. A change that is meant to alter output
must update the hash it moves and say why.
"""

import hashlib
import json

import pytest

import machh as M
from machh import cli
from machh.serialization import complex_to_dict

SQUARE = [[1, 2], [2, 3], [3, 4], [1, 4]]
RANDOM = {
    "rand6": (6, [[1, 2, 6], [1, 3], [1, 4], [2, 3, 6], [2, 5], [3, 4, 5], [3, 4, 6]]),
    "rand7": (7, [[1, 4, 6], [1, 5], [2, 3], [2, 5], [3, 4, 7], [3, 5, 6]]),
    "rand8": (8, [[1, 3], [1, 5], [2, 3, 5], [2, 3, 6], [2, 7], [3, 6, 7], [4, 6, 8], [5, 7], [7, 8]]),
}
K2R = [1, 2, 3, 4, 5, 6, 7, 8, 16]
TRIANGLE = [[1, 2], [2, 3], [1, 3]]


def _inputs() -> dict:
    """``{file stem: complex document}`` of every input a call reads."""
    square = M.SimplicialComplex.from_facets(4, SQUARE)
    rand = {name: M.SimplicialComplex.from_facets(m, f) for name, (m, f) in RANDOM.items()}
    docs = {"square": {"m": 4, "facets": SQUARE}}
    docs.update({name: {"m": m, "facets": f} for name, (m, f) in RANDOM.items()})
    docs.update({f"k2r{r}": complex_to_dict(M.k2r_family(r).complex) for r in K2R})
    docs["join"] = complex_to_dict(M.join(square, rand["rand6"]))
    docs["wedge"] = complex_to_dict(M.wedge(square, 1, rand["rand7"], 3))
    docs["ghost"] = {"m": 5, "facets": SQUARE}
    # sigma = {11,12,13} fills the triangle: n = 2, so rows 3-6 come from the complex before gluing
    triangle = M.SimplicialComplex.from_facets(3, TRIANGLE)
    docs["k2r16_triangle"] = complex_to_dict(M.join(M.k2r_family(16).complex, triangle))
    # rand6 joined with two points, relabelled by v -> 2v mod 9: the apexes 7, 8 become 5, 7
    pair = M.join(rand["rand6"], M.two_points())
    docs["rand6_points"] = {"m": 8, "facets": [sorted(2 * v % 9 for v in f) for f in complex_to_dict(pair)["facets"]]}
    return docs


# (argv, with {d} for the input directory; "--out" targets land there too)
CALLS = [
    *[["hh", f"{{d}}/{name}.json"] for name in ["square", *(f"k2r{r}" for r in K2R), *RANDOM, "join", "wedge"]],
    ["hh", "{d}/k2r5.json", "--field", "gf:32003", "--verify-exact"],
    ["hh", "{d}/rand6.json", "--field", "gf:32003"],
    ["hh", "{d}/rand7.json", "--format", "csv"],
    ["hh", "{d}/join.json", "--format", "csv", "--field", "gf:32003"],
    ["hh", "{d}/wedge.json", "--format", "table"],
    ["hh", "{d}/rand8.json", "--format", "table", "--field", "gf:32003"],
    ["hh", "{d}/k2r16.json", "--out", "{d}/hh_k2r16.json"],
    ["h", "{d}/square.json"],
    ["h", "{d}/rand6.json", "--field", "gf:32003"],
    ["h", "{d}/k2r6.json", "--format", "csv"],
    ["h", "{d}/wedge.json", "--format", "csv", "--field", "gf:32003"],
    ["h", "{d}/rand7.json", "--format", "table"],
    ["h", "{d}/join.json", "--format", "table", "--field", "gf:32003", "--out", "{d}/h_join.txt"],
    ["check-thm1", "{d}/square.json", "1,3", "--out", "{d}/thm1_square.json"],
    ["check-thm1", "{d}/k2r8.json", "7,8"],
    ["check-thm1", "{d}/k2r7.json", "5,6", "--out", "{d}/thm1_k2r7.json"],
    ["check-thm1", "{d}/k2r16_triangle.json", "11,12,13"],
    ["check-thm1", "{d}/rand6_points.json", "5,7", "--field", "gf:32003", "--out", "{d}/thm1_rand6_points.json"],
    ["ladder", "--r-max", "8"],
    ["ladder", "--r-max", "8", "--format", "csv"],
    ["ladder", "--r-max", "8", "--format", "table"],
    ["construct", "k2r", "--r", "16", "--out", "{d}/k2r16_built.json"],
    ["construct", "join", "{d}/square.json", "{d}/rand6.json"],
    ["construct", "wedge", "{d}/square.json", "{d}/rand7.json", "--at-a", "1", "--at-b", "3"],
    ["construct", "glue", "{d}/square.json", "--face", "1,3"],
    ["hh", "{d}/square.json", "--field", "gf:4"],
    ["hh", "{d}/ghost.json"],
    ["check-thm1", "{d}/square.json", "1,1,3"],
    ["hh", "{d}/square.json", "--max-m", "31"],
    ["construct", "glue", "{d}/square.json", "--face", "1,2", "--out", "{d}/glued.json"],
    ["construct", "glue", "{d}/square.json", "--face", "1,2,3"],
    ["h", "{d}/missing.json"],
]

GOLDEN = {
    'hh square.json': 'b2c1fae9a6818d73ac0506b02206effbe13fb7a3a9148e67f32f081b2f8c7c6c',
    'hh k2r1.json': '1b01c844feeb1f0e24f20b9c48ac87d97d538c64b880c2251de352a4131bef0f',
    'hh k2r2.json': 'b2c1fae9a6818d73ac0506b02206effbe13fb7a3a9148e67f32f081b2f8c7c6c',
    'hh k2r3.json': 'f2536cea51e8cf595133bf05eafe4529a50666f83180213de48426309d4e678f',
    'hh k2r4.json': 'b4b7bd3d5345eae4c97badd4c6a11120b7729f8877814fabf6c2034746765ef5',
    'hh k2r5.json': '8a3c94f5add4650ceb3345c3ddcfee8884c6e3dc6107d1d0c30984ef5e9ef9c1',
    'hh k2r6.json': '238ef7619ae94e6510d7aa767049e83685b6f5b5a799a6f2fa138c5492d71bd2',
    'hh k2r7.json': 'b625eff2def0c16d365d4e6b0816e28727a70121c4ce06054e0c0e0edc714ea1',
    'hh k2r8.json': '18f3aa2d8ce575b4a27b195acb62dd9b7471fa53b12c280835fa56210b126bf7',
    'hh k2r16.json': 'c9da0fc615656df90a2290a63a58eb90526eb1865981ea6b06914a861da17cf6',
    'hh rand6.json': 'c0f98166c101b63997fb4c90ae22287a3b71ff1d5323319ef243fb476954c016',
    'hh rand7.json': '51dbe4a125a101f0f71afc221272ab0265da81f2fcb89919b912beb19ca23220',
    'hh rand8.json': 'da14c93816efdd60fb40e69c9ab9562cf4ee8b4f1aaf275c13baa6b449f2621d',
    'hh join.json': 'c980184c8dbce85a5e8e4c83c7106808c64b34e3f0e859780fb7915f40c5b375',
    'hh wedge.json': '9ff9918666734175a7c68f0a1586b5f404643af70eb4f5dcde21ac1faea298cb',
    'hh k2r5.json --field gf:32003 --verify-exact': '78ffcb9a6c03c3b760daad7de047dd17fb4392eaaad32408e72be62d9df1ac66',
    'hh rand6.json --field gf:32003': 'eba10ddf0dfea5e37ee78dec46d4ed9e68d5805b4864f166d688e322c3ac5994',
    'hh rand7.json --format csv': '9c91fb2569a22d4ce9127e02f299574398d9969c0b04e8129917b6fc83a30a26',
    'hh join.json --format csv --field gf:32003': '1b1939819d21cd5bd418463394e0c21dffdc4ce0d714b2a3668949a302e434a1',
    'hh wedge.json --format table': '390f1dae3854df2dd30028d7bdd62bf7a63ee9f147e9efdddbeb67f76afa008f',
    'hh rand8.json --format table --field gf:32003': '390f1dae3854df2dd30028d7bdd62bf7a63ee9f147e9efdddbeb67f76afa008f',
    'hh k2r16.json --out hh_k2r16.json': '2a21ed1f02b35907c5a7b5ccc2a0e155ca60c517c01c796c54670e96fd78e62c',
    'h square.json': 'a6677ba18798d75302d6199ca67c55756782d9f07c36c1e66a668b3530cfb55b',
    'h rand6.json --field gf:32003': '7c1d4c895547060405840f5272cf04c6df5483b4a4701e32c49acc111837f114',
    'h k2r6.json --format csv': '06ce7376d3736a88fc3cd0eec2008d8d01fc89e2bad394839922c3f412e6a3d9',
    'h wedge.json --format csv --field gf:32003': 'd8750df67e14c717fc8f856f0396de1779a0783b5a23c828840ba8e22caddf53',
    'h rand7.json --format table': 'f70dd29bca2222369ded61858b73301a75d0e0850d6ec857e5cd4569b05512ec',
    'h join.json --format table --field gf:32003 --out h_join.txt': 'db6bd420ecd88d365796c27bda921e71ecd56574ecb63bd7184faaec2b5ad027',
    'check-thm1 square.json 1,3 --out thm1_square.json': '720e7e648b7403a3f6f1df7af508c05d13f5b5f149d33a36e6348cabc36f4e0a',
    'check-thm1 k2r8.json 7,8': '1845de8bef1d0df1372f6f694906f0671a07c48e7a2dd255a8c439bdbec136b7',
    'check-thm1 k2r7.json 5,6 --out thm1_k2r7.json': '6a7ec975cbcc5ccf80397d3fbbfed1a6d72cbe21b47021f2b8dcc4a6567fef33',
    'check-thm1 k2r16_triangle.json 11,12,13': 'efd0a410667ea651b7189fe89cec72b51be9a456dbba862627b89d80f3ae8f5f',
    'check-thm1 rand6_points.json 5,7 --field gf:32003 --out thm1_rand6_points.json': '2866ae68f2c4f80c5c133834f3f9f88ba0b950f0741e1903647ce4673761d77c',
    'ladder --r-max 8': '059b0565a18a1a4afa7d8d8b2ff9596e69661783313f20d2650025f5f6faf80f',
    'ladder --r-max 8 --format csv': 'a606fe05c2c342000e7c4d347020b76ffbe00fa9a2c14090548fec8e35cd144a',
    'ladder --r-max 8 --format table': 'b5d974c9797da47e40a382b64c93ab6069a898d78b18a4dee71f045e515d38f7',
    'construct k2r --r 16 --out k2r16_built.json': '641d8a3be18b7504e163cda4005ac6522af9f1037dea636797c4d8f7a7363970',
    'construct join square.json rand6.json': '793edd4c8a6f898d18f2d690978b3240303a019af0fefc2e939f11ab6f8f75a6',
    'construct wedge square.json rand7.json --at-a 1 --at-b 3': 'e2ce864739127a249b9086c6befd7b6adea4b8de0ae0a04957ca5e1c6318cdf9',
    'construct glue square.json --face 1,3': '4cb4a88db3fb9f2c7c18adce77ce6b654bdaf4444ea680ca459bd420e728b6c7',
    'hh square.json --field gf:4': 'f9413afb3e322af53122f38db053ded0e50dcfed63ec03c09e74c291f64d11d9',
    'hh ghost.json': 'ea3cd4d94b81705c0f260d282d9ad0a782b83e9e543893d9760741862cbab734',
    'check-thm1 square.json 1,1,3': '98c0d4f94d73f15f531f69314fa278bd045397121d63c1119df3fa86e9176da7',
    'hh square.json --max-m 31': 'cf8136fc223de1307f3c909c5dd6999b822dcb761e3999049602c0ef401b128b',
    'construct glue square.json --face 1,2 --out glued.json': 'abc6830261529708570b25bd22d2d80789f450f7164b435d302e9f872c547511',
    'construct glue square.json --face 1,2,3': '3368cd8b26b095d8fcd647e50326f1318b91f044d194a6eaf32e1864e3c29835',
    'h missing.json': '1f30075164815dd80a440ad4f070d4e1bf154e08a5033391fa6baeb5c3d80747',
}


def _id(argv) -> str:
    return " ".join(a.replace("{d}/", "") for a in argv)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for stem, doc in _inputs().items():
        (d / f"{stem}.json").write_text(json.dumps(doc))
    return d


def output_hash(argv, d, capsys) -> str:
    """sha256 of one call's stdout, stderr, exit code and ``--out`` bytes."""
    code = cli.main([a.format(d=d) for a in argv])
    out, err = capsys.readouterr()
    written = b""
    if "--out" in argv:
        target = d / argv[argv.index("--out") + 1].replace("{d}/", "")
        written = target.read_bytes() if target.exists() else b"<none>"
    blob = json.dumps([out, err.replace(str(d), "<dir>"), code, written.hex()])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("argv", CALLS, ids=_id)
def test_output_bytes_are_pinned(argv, input_dir, capsys):
    assert output_hash(argv, input_dir, capsys) == GOLDEN[_id(argv)]

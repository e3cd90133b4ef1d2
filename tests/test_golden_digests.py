"""Pinned report digests: every CLI command on every ideal of a golden set.

Each entry is the exit code and the sha256 of the ``--json`` stdout of one
``bquiver <command> <doc> --ideal <name> --json`` call.  A change to any
report, however small, shows up here; a deliberate one is recorded by
rerunning this file as a script, which prints the current table::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout

from bquiver.cli import main

from test_cli import KRONECKER_DOC, PARALLEL_PAIR_DOC, TWO_TRIANGLES_DOC

# reduced bases with negative and fractional coefficients over QQ
FRACTIONS_DOC = """\
field QQ
quiver {
  vertices 1, 2, 3, 4, 5
  arrow b: 1 -> 2
  arrow a: 1 -> 3
  arrow c: 2 -> 3
  arrow e: 3 -> 4
  arrow d: 3 -> 5
  arrow f: 4 -> 5
}
ideal R { 2*d*a - 3*f*e*a ; d*c*b + 1/2*f*e*c*b }
ideal S { 3*f*e*c*b - 2*d*a ; -1/3*d*c*b }
tree { b, c, e, f }
"""

# parallel arrows and a bypass over GF(3)
GF3_DOC = """\
field GF(3)
quiver {
  vertices 1, 2, 3, 4
  arrow a: 1 -> 2
  arrow b: 1 -> 2
  arrow c: 2 -> 3
  arrow d: 1 -> 3
  arrow e: 3 -> 4
}
ideal I { e*c*a + 2*e*c*b ; e*d }
ideal M { c*a ; e*d }
"""

DOCUMENTS = {
    "parallel_pair": (PARALLEL_PAIR_DOC, ("I", "J")),
    "two_triangles": (TWO_TRIANGLES_DOC, ("I", "K")),
    "kronecker": (KRONECKER_DOC, ("Z",)),
    "fractions": (FRACTIONS_DOC, ("R", "S")),
    "gf3": (GF3_DOC, ("I", "M")),
}

COMMANDS = ("validate", "pi1", "homk", "hh1", "theta", "gamma", "maxdiag", "verify")

# (document, ideal, command) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("parallel_pair", "I", "validate"): (0, "809ab63f261323665b6db48f110cb91255fe4fad9d6f4d809eb7fcd225a1eff5"),
    ("parallel_pair", "I", "pi1"): (0, "ffd2c05962ede92289ab865788fe5dfbff96259b2e76b220c02f82e607a7de1e"),
    ("parallel_pair", "I", "homk"): (0, "6aaa473922ba891f878bd9613f1fa1a82139694c9cf7fbd7cc6dd8d2743b8c31"),
    ("parallel_pair", "I", "hh1"): (0, "7e32043539a7f763d5f798318d27bd7262a22f24b06c07a7692eea95cb446af3"),
    ("parallel_pair", "I", "theta"): (0, "dd189b391f6e8d28cafccedce7538a9653e845f29458601b8c23ed92bdd543d6"),
    ("parallel_pair", "I", "gamma"): (0, "210d10d7569ad66fa23870b88142c81bf304332a2951c6b2f0cc0d976efa7cf3"),
    ("parallel_pair", "I", "maxdiag"): (0, "c524a94c26588080c09f6d146e5dfcfd1c7bc1571be7c23077f242cc5dc1e9c2"),
    ("parallel_pair", "I", "verify"): (0, "ee29a92418d8663fa8d858128eca040b9cf03f5584d9314aedcc0de5d408fc41"),
    ("parallel_pair", "J", "validate"): (0, "809ab63f261323665b6db48f110cb91255fe4fad9d6f4d809eb7fcd225a1eff5"),
    ("parallel_pair", "J", "pi1"): (0, "20d4b8398b91cf51a52b2afbdf4d4982e9158080c93b102812442f888eed1769"),
    ("parallel_pair", "J", "homk"): (0, "b681acb4218d15f43943c0b2d07c715ecbfb4f69d685b038fa716699d6241803"),
    ("parallel_pair", "J", "hh1"): (0, "14604a2df87bb88afcda0dc5dbb35c31f49d7ef31941fe02cc4e4434f2e36963"),
    ("parallel_pair", "J", "theta"): (0, "15726da1ab9b3d58c172518b79e62315e583ad7aded5fb14492e267ddb991088"),
    ("parallel_pair", "J", "gamma"): (0, "d8bd3d1b49a22fbdbb6be61edc09a8423c7ab490c2cb5b808826c74797f16c85"),
    ("parallel_pair", "J", "maxdiag"): (1, "84d67006e9d23849c62e4670c1c4e618892e6bfd72f4bc4dcf07e250e4088b39"),
    ("parallel_pair", "J", "verify"): (1, "21ef69c7f0b59daf2ec0a5b4baaa6cd61662fa0b52c174cde4bd1e27a901023e"),
    ("two_triangles", "I", "validate"): (0, "eac218bad760066fc93d88452bf4fec13bb0eecd0a1e8fae3849ac3ae10d15f5"),
    ("two_triangles", "I", "pi1"): (0, "b54c2dca89ebccde74d320cf101bba8eecb64e2c2bbeba7bfc4c944e6407b9f3"),
    ("two_triangles", "I", "homk"): (0, "f28d39cc69dbdbeafd904aa8a657adf534ac17287ebc8d0fe8a7a86bb2ced58c"),
    ("two_triangles", "I", "hh1"): (0, "084236a5724a76cd5dc6c2630e61d4607f6c99d9ef83566fb89dfb93ddf1c028"),
    ("two_triangles", "I", "theta"): (0, "d0ee16f20d22e9baf30892804f03b07c844df8de0923edbcd20983b51d6d5c54"),
    ("two_triangles", "I", "gamma"): (0, "85d40c923202acc5f8afe4d99726ee822f14196662ea6ee9e307d89d5283c006"),
    ("two_triangles", "I", "maxdiag"): (0, "c693c10c8105c1eb05198dd7ac0837d01ca06a69b539f9fe1e33a5fbf8e4ad12"),
    ("two_triangles", "I", "verify"): (0, "b108f3a6ea8ae674bfc05c87e7461b2cd94b6dc99e852ea7d045a96a1f2f5c2c"),
    ("two_triangles", "K", "validate"): (0, "eac218bad760066fc93d88452bf4fec13bb0eecd0a1e8fae3849ac3ae10d15f5"),
    ("two_triangles", "K", "pi1"): (0, "8d488189f43ecdab888755b676ab6347bdfef1da80ce9cd1124fe0d007f3de84"),
    ("two_triangles", "K", "homk"): (0, "a949b2a83453204a8e76c914652ff67c678f260cb6f225fd5fc97f413e0f2cb8"),
    ("two_triangles", "K", "hh1"): (0, "d55edd9643648cde00ad63adb2bef757fff02cabf21d5c705a76909dc29d8061"),
    ("two_triangles", "K", "theta"): (0, "47632f5797c13f53a918f8d976bc8a821aee270f676f4790d8e06c504cb8b71e"),
    ("two_triangles", "K", "gamma"): (0, "637bcf8a1d048490a69364f1c822766ec4a70dc5143ffde31ccff0b7e53dafb1"),
    ("two_triangles", "K", "maxdiag"): (0, "f5ecabc505bf4ef7dddbb42d32164bf45c4e1da93309ac494454624063a76912"),
    ("two_triangles", "K", "verify"): (0, "94ee90b2bdd3d86f0c95162febcc4e92ff09db933710f5926f1cb74cb8f7f16d"),
    ("kronecker", "Z", "validate"): (0, "89f8837c00e48f2f1634928802dea8d471c33681fca772020eb1c900e53ae6a5"),
    ("kronecker", "Z", "pi1"): (0, "e2fc2c1946fdd5f5970e59717d1bfce71d1147ff24d28778b38836bfbb3032b6"),
    ("kronecker", "Z", "homk"): (0, "aac5eb2994b1708f0000eccc9c62a2833f4df95d86b2c2f01a02897d3cbf4070"),
    ("kronecker", "Z", "hh1"): (0, "0b76a66aa90ba3b6d7c580a9b49081d59134696eda67bd7c038ca7d9fff28fb8"),
    ("kronecker", "Z", "theta"): (0, "3a91cd9a3f50a93b9caa78c45ef6b792111ff374a050847112aed5a5ae41214a"),
    ("kronecker", "Z", "gamma"): (0, "69127d18fe151494fc797b8b7c84ecbec5ce6c5a7dd4187b6e4018c70ba3a3c3"),
    ("kronecker", "Z", "maxdiag"): (0, "7d21525784fdd5967c61e5f745ac167b023fa74adf917e5908bd9a9a65f5c204"),
    ("kronecker", "Z", "verify"): (0, "e1891895d94a824e84d72c6cabb9c5976eba1597f11da28e19ea70cd94b7effa"),
    ("fractions", "R", "validate"): (0, "24a3bb5e4dc28dd5d4434938c5016bbe6342becfe7d12010aac3a70690c38afc"),
    ("fractions", "R", "pi1"): (0, "cf2ba6b7cf1dd22c064f65efcabb635db4d4e980882aae020f7552ffc4a491f0"),
    ("fractions", "R", "homk"): (0, "efe2c42ac98a9611091c146075caec9d9389d322fbd08bc18969350f1dfb517f"),
    ("fractions", "R", "hh1"): (0, "2d055851dea602034fac4573df415bf0a456c81618cc06a898c7dd92b6e2657c"),
    ("fractions", "R", "theta"): (0, "c7a95c4025c62776ca75904d896bcd79c6d26757d2973d418cc5bef79a00857a"),
    ("fractions", "R", "gamma"): (0, "181e09321f670e1ea19eb53e0357f84a5898164476f59d51aa8ff286ab1fe773"),
    ("fractions", "R", "maxdiag"): (0, "e43a2d3504be09e92a94233e467b808e60e7dec9d93b1f84459390983a6747ad"),
    ("fractions", "R", "verify"): (0, "44d5e371ac22ba08915533555481a4646be98fe13f05a4fd6b92bb86458328e8"),
    ("fractions", "S", "validate"): (0, "24a3bb5e4dc28dd5d4434938c5016bbe6342becfe7d12010aac3a70690c38afc"),
    ("fractions", "S", "pi1"): (0, "79d544cd54b3819fd174aa8189bb88336c3e4e4d60ea573c5430c9eb92eccdb3"),
    ("fractions", "S", "homk"): (0, "695042568f2d0d9646b8bc226a03e6667fe9dc7b69a2c2512a38b662674c13be"),
    ("fractions", "S", "hh1"): (0, "55dd0bdf7b0d369676f9c6bedad79066d3589923e3c76dd1d9a7b72e0efede8d"),
    ("fractions", "S", "theta"): (0, "d5f32908d41d3760dc5bfc0fa3bd3827f21ffbaa9acfb3959b7c82eb09fed4b2"),
    ("fractions", "S", "gamma"): (0, "eda36c35c9eba46517fd2f5e37d046a43f399635377b6ae34ce920b2fe9dc462"),
    ("fractions", "S", "maxdiag"): (0, "09140f37ab80e3df8858ab39384b966cdf5d2fe5b2b77a27460e428606520e45"),
    ("fractions", "S", "verify"): (0, "0067f6b4f3348d5975e2d7b2abaa1b006770a54c2576380836024777af109a22"),
    ("gf3", "I", "validate"): (0, "1540e0961925162900cf594fe92e284adbdc2406b96e2fb95a41c1fb1946d38a"),
    ("gf3", "I", "pi1"): (0, "9bbc3231abcea9e4ecf8572a3009c5064739230034debfc92e8cc247cefc8159"),
    ("gf3", "I", "homk"): (0, "564b163f61298d870c5a427059b1c07db759a03841897f1731da824859b2abd6"),
    ("gf3", "I", "hh1"): (0, "887618d1e7eab393c06bcad42776e73eaa816ed88f639f20e29f426574e16c58"),
    ("gf3", "I", "theta"): (0, "726561a634c3b9c0097bfb833bdcca96641c972b67725521a95192b6b732635c"),
    ("gf3", "I", "gamma"): (0, "15da2215b20e5f32a106e1ccadf8e251c816b6e151e65c33a08d6269a5b8f773"),
    ("gf3", "I", "maxdiag"): (1, "ef7d8e624669539a4211668f5a13f145e569a281610d299ec2a3ff62fc095d75"),
    ("gf3", "I", "verify"): (1, "7d2b558493216771052b4c2268ca5b8b8b17c7c3ec73451a88ff973f0143a448"),
    ("gf3", "M", "validate"): (0, "1540e0961925162900cf594fe92e284adbdc2406b96e2fb95a41c1fb1946d38a"),
    ("gf3", "M", "pi1"): (0, "ec59730a7071c4ff9c9db81e1a7912766328f314487bf08e13adfcab02c91c66"),
    ("gf3", "M", "homk"): (0, "ed0cf6e2b41c4f2161eb7872d462ef335533b17a33913c04003a160278268a00"),
    ("gf3", "M", "hh1"): (0, "5d076ddaf26ab2982c10900bf29775ad27efa67268cf4fb4d197db5207b16603"),
    ("gf3", "M", "theta"): (0, "cc661dc8ce67b67621f98fe8722f3e9762c1841abaf6882d2ca4e4975d0e1c57"),
    ("gf3", "M", "gamma"): (0, "bbae5475dbb6a0d4f233855d489981407fb360bb629461b6adc3b540e3eaac4e"),
    ("gf3", "M", "maxdiag"): (0, "949f458d09716033c9af98f89b755cf06c1430ae96a8f1607dca075b91aa223a"),
    ("gf3", "M", "verify"): (0, "6416764ba71378dca298f4b6d1cd761f9be750d4a43b68afd47c2fb774c273eb"),
}


def _run(path, ideal, command):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, path, "--ideal", ideal, "--json"])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _digests(tmp_dir):
    table = {}
    for doc_name, (text, ideals) in DOCUMENTS.items():
        path = tmp_dir / f"{doc_name}.bq"
        path.write_text(text, encoding="utf-8")
        for ideal in ideals:
            for command in COMMANDS:
                table[(doc_name, ideal, command)] = _run(str(path), ideal, command)
    return table


def test_golden_report_digests(tmp_path):
    table = _digests(tmp_path)
    assert set(table) == set(GOLDEN)
    changed = sorted(key for key in GOLDEN if table[key] != GOLDEN[key])
    assert not changed, f"reports changed: {changed}"


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for (doc, ideal, command), (code, digest) in _digests(pathlib.Path(tmp)).items():
            sys.stdout.write(f'    ("{doc}", "{ideal}", "{command}"): ({code}, "{digest}"),\n')

"""Golden-output guard: every listed CLI call must print byte-identical output.

Each case runs ``cli.main`` in-process and compares the exit code and the
sha256 of stdout against values recorded before the refactors they
guard: the first thirteen before the package's dead and duplicate API
was removed, the odd-characteristic and GF(2^16) cases after them
before the field tables were rebuilt as F_p-linear maps, the next two
(an ell = 4 quantum CSV and a conditional search objective) before the
dual checks and the Hermitian pair rule were merged, the next four
(budget refusals) before dual-code certification was split from quantum
derivation, the text coset table before the package root was cut to
the pipeline's entry points, the next three (a ternary and a 5-ary
frontier, and a ternary dual certificate) after odd characteristic was
opened to every table whose characteristic divides n+1, the next
three (ternary, 9-ary and 25-ary certificates whose rows span one to
six words of packed symbols) before the odd-characteristic span table
was packed into words like the binary one, and the last four (a
truncated family's JSON and CSV certificates, a text refusal and a text
dual certificate) before the three report commands came to share one
printer.  The two ``verify`` cases at the end (no certification, and a
budget that refuses every certification) were recorded before
``verify`` became one loop over per-section checkers.
Three JSON search digests were recorded again when the
branch-and-bound search became one sorted walk over the Hermitian
matching: its output differs only in ``nodes``,
which now counts the frontier's prefixes, not tree nodes.  The quantum
and search cases lost their ``--ell`` option when q = ell^2 came to fix
ell, and their digests were kept unedited, so those outputs are
byte-identical to the ones printed with ``--ell``.  Six digests were
recorded again when the search objectives gave way to two floors on the
frontier chain.  The three JSON searches lost their ``objective``,
``complete`` and ``nodes`` keys, and their reports are unchanged.  The
conditional-objective case became ``search --q 4 --n 63 --min-d 6``,
whose first line is the one report the objective printed, followed by
the rest of the chain.  The two ``verify`` digests moved when its bounds
were labelled (``>=d`` and "degree bound:") and its duality lines
dropped the always-true gram and nullspace flags, and again when a
published distance that no family reaches was said in words, not as
``quantum_k=None``.  A refactor
that changes any printed byte (a frontier, a certificate witness, a
field description, a JSON key order, a refusal) fails here.  Do not
update a digest to make a change pass; a change of output has to be
justified on its own.
"""

import hashlib

import pytest

from cosetcodes.cli import main

GOLDEN = [
    ("verify", 0,
     "e7f07cb9e1d56ba8a381f9e4c001637b3c6b5d8d1b22f170f72c6818c64e63dd"),
    ("cosets --q 4 --n 51 --format json", 0,
     "89ea146ceb27d9f5cc603a4267bc351dda715578fb1447eed84ed162e7a2b609"),
    ("matrix --q 4 --n 51 --r 16", 0,
     "442204dc529471bf203f47aa20413701a34762689a849525df86460f969e6381"),
    ("matrix --q 3 --n 26 --family 0,1,2,4 --format text", 0,
     "2aa4f79f46b2977e0a031785699c8c5a968bb5a146c8feaeeebcabf3570ea0ca"),
    ("classical --q 3 --n 26 --family 0,1,2,4 --certify --format json", 0,
     "a242774170e69e41edfefe4ce85ba7105a6442332e30eb4f4ce795e851f10f65"),
    ("classical --q 8 --n 63 --family 0,1,3 --certify --format json", 0,
     "fc9164364992cd1e1fa940eeb51345fae7ea5e15e2dff21506ac0f36801c24a5"),
    ("classical --q 4 --n 51 --r 16 --certify", 0,
     "3859fe6b734876b869afa71f8c787906ec67041233e9895d2b21ce34dd6482e3"),
    ("quantum --q 4 --n 21 --family 0,1,2,3 --certify-dual --format json", 0,
     "b9e77ca9f79e7779083cfb4aed943fd7a50426734c6de2f5a0a42ff2c8a3f4d0"),
    ("quantum --q 4 --n 51 --family 0,1,2,6", 0,
     "c977e2ae988037f0b6574e944dceb99fbf74508f699bdeb7750e624dd2f9ad8f"),
    ("search --q 64 --n 585 --min-quantum-k 532 --format json", 0,
     "63d2c157c7ed3f56519f892b4557bcd27917224d634e061f0bf7bf29c973e279"),
    ("search --q 16 --n 51 --format json", 0,
     "84f6cf55ce341886490f4deeeb721e6f97ed113125745a7f158e75f9311c874c"),
    ("search --q 4 --n 51 --format csv", 0,
     "fc9e5e1ba8104127be893f35c50875193b0994d2cbfb2e58175aad09ae1f67f2"),
    ("search --q 4 --n 21", 0,
     "dfc6c2318a03b671196bd6ac527337e2691e0cac1b81cf73d9f54942cbde2438"),
    ("matrix --q 5 --n 12 --family 0,1,2 --format text", 0,
     "5c1fcc523cab20406311b63993dd92c5619b900a7ad67508592a1a471cb7beef"),
    ("matrix --q 9 --n 10 --family 0,1", 0,
     "77cbf3c68a55f7b77b1a8645ac4070d1713c4f9b604946b1bc5350cf6edc23bc"),
    # GF(7): the generator is the primitive root 3, not x (= 5 mod x + 2)
    ("matrix --q 7 --n 6 --family 0,1", 0,
     "d58d96eaed0cff53d29f44538ee0d7c5bb646dce4cf4af391fe18a312e18bf33"),
    ("matrix --q 4 --n 257 --family 0,1", 0,
     "e4fb41e2b1237147a81d509a0d2e17877c6ae88ba038b44f279fb3d451e74ff5"),
    ("classical --q 5 --n 24 --family 0,1,2 --certify --format json", 0,
     "4b5b853834ca88aec477214b582e087295cd3a44a07497f709df614937151e87"),
    ("quantum --q 16 --n 51 --family 0,1,2 --format csv", 0,
     "ebe4e9b047a63077c3765a659812d0f9b94beee67a95deb1f4b67259ffdfba1c"),
    ("search --q 4 --n 63 --min-d 6", 0,
     "2f1ac72addae5fe4b2cbc617e05a628353a2c923486eb1fa2e67f66fc9e70e19"),
    # budget refusals: each output names the limit, and only the bound stands
    ("quantum --q 4 --n 21 --family 0,1,2,3 --certify-dual --budget 100", 0,
     "95756c8d5d7eb07f6760327c32c0fc7a9a88b8d65a0e817dee7bb92d10539a8d"),
    ("quantum --q 4 --n 21 --family 0,1,2,3 --certify-dual --budget 100 "
     "--format csv", 0,
     "8d4ef78cf1138d48c1cf20ab360ef1dec25beb2541521558ff85f8df7011b59e"),
    ("classical --q 4 --n 21 --family 0,1,2,3 --certify --budget 100 --format json", 0,
     "c90f98834b8eda83c318f7d833fbc706222650e4010186b1de7265a145e3b55c"),
    ("verify --budget 100000", 0,
     "334d1d1ec00694bb758caa76272163287badd4b9b7af51e289cb3b59ace61c73"),
    ("cosets --q 4 --n 21 --format text", 0,
     "f12cbd58602f00de3f50c86fa922b62035d031d1a02192c73763ab71af077675"),
    # odd characteristic, p | n+1: quantum MDS frontiers and a certified d(C_T)
    ("search --q 9 --n 26", 0,
     "82cfc82d63cb9f6166d2b4a6d860c7b65f1588256d617646b574beee0b56a450"),
    ("search --q 25 --n 24 --format json", 0,
     "ded4e5e119e36c58788968aa2e55b39e915d9e60aede7b211f371325c8140a7c"),
    ("quantum --q 9 --n 8 --family 0,3 --certify-dual --format json", 0,
     "56b25251d1596616d53698b77735385294222c2e914996d7998997b50fe5c87f"),
    # odd-characteristic certificates: 365 steps of 3^10 rows, 11 steps of
    # rows of 81 symbols of 4 bits, and 27 steps of 25^3 rows
    ("classical --q 3 --n 26 --family 0,1,2,4,5,7 --certify --format json", 0,
     "26cbb12253ecdc30cfee41bc1db2663a18a3321f2ed2a89c008048739035cfc6"),
    ("classical --q 9 --n 80 --family 0,1,2,3 --certify --format json", 0,
     "832ff96a0c5f2eb696c06b7018b6c06b729891ad115006b4e18554d7f3acead7"),
    ("classical --q 25 --n 24 --family 0,1,2,3,4 --certify --format json", 0,
     "a0d5f96bff305d037d0f71a226f770774631578b59b01a9850c3dcf97c7b3ee4"),
    # report branches no case above prints: the "r" key with a certificate,
    # a CSV d_exact, a text refusal and the text dual-certificate line
    ("classical --q 4 --n 51 --r 16 --certify --format json", 0,
     "9bb6e2fa1552fcdd39ad02aa043ccf73a65408720d98c77c07b71e888fbf83a0"),
    ("classical --q 4 --n 63 --r 21 --certify --format csv", 0,
     "92f456138237677d35f3fee46c296a4bbf1df5cc19944a0fa473e6ea45488f74"),
    ("classical --q 4 --n 21 --family 0,1,2,3 --certify --budget 100", 0,
     "ee9f749821d8b2a86740f685a96d37be29892f83958c53b1a2ee1e334e290f74"),
    ("quantum --q 4 --n 21 --family 0,1,2,3 --certify-dual", 0,
     "126fde622d17989cd841530e18390216983114fc6612b4d24d4b43166058b23c"),
    # verify branches no case above prints: no certification at all, and
    # the classical and dual "bound only" lines of a refusing budget
    ("verify --skip-certify", 0,
     "04d404650a49230abb11a797e27a735e226609a13d3dc83244692138fa9b3c4f"),
    ("verify --budget 10", 0,
     "36d695afc2dbb7dde22a55bde04950282533aa74249f56a691ff5cb092fa6fb8"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_cli_output_is_byte_identical(capsys, argv, code, digest):
    got = main(argv.split())
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest

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
opened to every table whose characteristic divides n+1, and the last
three (ternary, 9-ary and 25-ary certificates whose rows span one to
six words of packed symbols) before the odd-characteristic span table
was packed into words like the binary one.  A refactor
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
     "9522b96fa9dd0774510573b36b816d3102d9afc8dc912368a46a4b86b2835ef2"),
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
    ("quantum --q 4 --ell 2 --n 21 --family 0,1,2,3 --certify-dual --format json", 0,
     "b9e77ca9f79e7779083cfb4aed943fd7a50426734c6de2f5a0a42ff2c8a3f4d0"),
    ("quantum --q 4 --ell 2 --n 51 --family 0,1,2,6", 0,
     "c977e2ae988037f0b6574e944dceb99fbf74508f699bdeb7750e624dd2f9ad8f"),
    ("search --q 64 --ell 8 --n 585 --min-quantum-k 532 --format json", 0,
     "424047ddf83b1841edfd98e935e4bcddcb967376abb74d637402230796faa79d"),
    ("search --q 16 --ell 4 --n 51 --format json", 0,
     "f9b1a6c88692d65e1005f232a91b12736345d232fc70077ad6986fe4c272c348"),
    ("search --q 4 --ell 2 --n 51 --format csv", 0,
     "fc9e5e1ba8104127be893f35c50875193b0994d2cbfb2e58175aad09ae1f67f2"),
    ("search --q 4 --ell 2 --n 21", 0,
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
    ("quantum --q 16 --ell 4 --n 51 --family 0,1,2 --format csv", 0,
     "ebe4e9b047a63077c3765a659812d0f9b94beee67a95deb1f4b67259ffdfba1c"),
    ("search --q 4 --ell 2 --n 63 --objective max_k_given_d --target 6", 0,
     "731b3122dc536e0ecff0e7c8cec785a57dc7d2a242cbecf4017ad417afeddba3"),
    # budget refusals: each output names the limit, and only the bound stands
    ("quantum --q 4 --ell 2 --n 21 --family 0,1,2,3 --certify-dual --budget 100", 0,
     "95756c8d5d7eb07f6760327c32c0fc7a9a88b8d65a0e817dee7bb92d10539a8d"),
    ("quantum --q 4 --ell 2 --n 21 --family 0,1,2,3 --certify-dual --budget 100 "
     "--format csv", 0,
     "8d4ef78cf1138d48c1cf20ab360ef1dec25beb2541521558ff85f8df7011b59e"),
    ("classical --q 4 --n 21 --family 0,1,2,3 --certify --budget 100 --format json", 0,
     "c90f98834b8eda83c318f7d833fbc706222650e4010186b1de7265a145e3b55c"),
    ("verify --budget 100000", 0,
     "dfcd7cf78b0192a2fec9f92499e925a8cf5296b9d5e6df09252c97754f57991b"),
    ("cosets --q 4 --n 21 --format text", 0,
     "f12cbd58602f00de3f50c86fa922b62035d031d1a02192c73763ab71af077675"),
    # odd characteristic, p | n+1: quantum MDS frontiers and a certified d(C_T)
    ("search --q 9 --ell 3 --n 26", 0,
     "82cfc82d63cb9f6166d2b4a6d860c7b65f1588256d617646b574beee0b56a450"),
    ("search --q 25 --ell 5 --n 24 --format json", 0,
     "bb9b2990569dd98e72ec169290e577c24280a4d85d101073724d377cd36166d1"),
    ("quantum --q 9 --ell 3 --n 8 --family 0,3 --certify-dual --format json", 0,
     "56b25251d1596616d53698b77735385294222c2e914996d7998997b50fe5c87f"),
    # odd-characteristic certificates: 365 steps of 3^10 rows, 11 steps of
    # rows of 81 symbols of 4 bits, and 27 steps of 25^3 rows
    ("classical --q 3 --n 26 --family 0,1,2,4,5,7 --certify --format json", 0,
     "26cbb12253ecdc30cfee41bc1db2663a18a3321f2ed2a89c008048739035cfc6"),
    ("classical --q 9 --n 80 --family 0,1,2,3 --certify --format json", 0,
     "832ff96a0c5f2eb696c06b7018b6c06b729891ad115006b4e18554d7f3acead7"),
    ("classical --q 25 --n 24 --family 0,1,2,3,4 --certify --format json", 0,
     "a0d5f96bff305d037d0f71a226f770774631578b59b01a9850c3dcf97c7b3ee4"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_cli_output_is_byte_identical(capsys, argv, code, digest):
    got = main(argv.split())
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest

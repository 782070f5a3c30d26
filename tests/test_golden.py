"""Golden-output guard: every listed CLI call must print byte-identical output.

Each case runs ``cli.main`` in-process and compares the exit code and the
sha256 of stdout against values recorded before the package's dead and
duplicate API was removed.  A refactor that changes any printed byte
(a frontier, a certificate witness, a field description, a JSON key
order) fails here.  Do not update a digest to make a change pass; a
change of output has to be justified on its own.
"""

import hashlib

import pytest

from cosetcodes.cli import main

GOLDEN = [
    ("verify", 0,
     "9522b96fa9dd0774510573b36b816d3102d9afc8dc912368a46a4b86b2835ef2"),
    ("verify --jobs 2", 0,
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
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_cli_output_is_byte_identical(capsys, argv, code, digest):
    got = main(argv.split())
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest

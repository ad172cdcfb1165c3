"""Frozen `check` reports.

Every JSON report below is pinned by the SHA-256 of its bytes, for each
input at p = 3 and p = 5, with each criterion alone and with the default
list.  Together they fix the merge order of the residue sets, which
criteria exclude, and when `combined_candidates` is absent.  The digests
and the two text reports were taken from the program before the
criteria moved into one table; a changed digest is a changed report.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from linkperiod import cli

INPUTS = {
    "trefoil": ("--braid", "1 1 1"),
    "trefoil-pd": ("--pd", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"),
    "figure-eight": ("--braid", "n=3; 1 -2 1 -2"),
    "hopf": ("--braid", "1 1"),
    "hopf-chain": ("--braid", "n=3; 1 1 2 2"),
}

#: (input, p, criteria) -> SHA-256 of `check --format json`; "default"
#: runs without --criteria.
JSON_DIGESTS = {
    ("trefoil", 3, "quantum-minus"):
        "1ec18ac19c2f70451fd40c1357436dc85fd71f98e1afa20df2b1c133ace2d9c4",
    ("trefoil", 3, "quantum-plus"):
        "b71a507ff3c52a2268217f17ba02f22fa92dee9cd358273402234820f435dd8a",
    ("trefoil", 3, "jones"):
        "c2598e53a2ac83fa76722158fa2c8a403df1b3f40d12259849a8666bccda465a",
    ("trefoil", 3, "p0"):
        "b59dbd22bd83572403673bd0cf0ac0b35fb19cb69d2b6ddba43c4ccdc3be8aa9",
    ("trefoil", 3, "alexander"):
        "7e38e6a0b476ef0ae1333fbddb61936169f846166fb11b68ba1524a3266b4a07",
    ("trefoil", 3, "default"):
        "12a619457127b9a6d8debd7b86c79ed758afb4503b51f259fee2dde6333d4f50",
    ("trefoil", 5, "quantum-minus"):
        "390adaa659b48e78f2895d9601107b69eb667be2d63b5995bd192d4e1c54edab",
    ("trefoil", 5, "quantum-plus"):
        "146731a8e009b28512b6d70fcbd3b52b159dd2f0c3453315aeb6f69a8a4fa8c6",
    ("trefoil", 5, "jones"):
        "580fb05d1de7bff7a0baadc7f7175d89944c44213f807cd7016b61e331bf246e",
    ("trefoil", 5, "p0"):
        "d24082018099793a1075503e2cc6593d1403260f8a295b3f30a191c8f1f4795b",
    ("trefoil", 5, "alexander"):
        "ad4dd210d50b358ffcb42222b41d195b6646b622335bb4ad55a447b35fe69040",
    ("trefoil", 5, "default"):
        "1f5f4d574db657eaf60b874f2fbc93b1c3120cc8dfdf23690a764501084544d4",
    ("trefoil-pd", 3, "quantum-minus"):
        "22962f03238b390b43e963e5e8945e2ffca508e619ff982a778d1f6e45d27515",
    ("trefoil-pd", 3, "quantum-plus"):
        "1add695c0fc0c3b0139a2da9dae62ee9f1a4b78cd80ce66a770ba16169d26cde",
    ("trefoil-pd", 3, "jones"):
        "61b066ec7f0708078a4f35d3c2c6009b0f282c4cab04f5a8b49e7df57eade1f8",
    ("trefoil-pd", 3, "p0"):
        "2e2b3404cda298e030b49ad91b0caf11178dbc810317ae798a33e7251d139c33",
    ("trefoil-pd", 3, "alexander"):
        "e9b625e63969c4c62f899d8386abbdad9641f57220cec4a73655ec8504b565c4",
    ("trefoil-pd", 3, "default"):
        "cc55c61625ddbca08ddfd1c0706cdf48d58cc2f306fa3e5a4cfa3df5a89121f8",
    ("trefoil-pd", 5, "quantum-minus"):
        "d265b211e6e04d06d6e2d1777f7588e1c30c2156af53f17cba7b3d9d1d80f68a",
    ("trefoil-pd", 5, "quantum-plus"):
        "8632b979493715d2c3cef58ad5d74db2f3dd11dbcb190ed26b4726db2f0142fa",
    ("trefoil-pd", 5, "jones"):
        "37f7b123b718df7df11605aa44b47fbb5659ca47e1fa422d560071ed8ff7accb",
    ("trefoil-pd", 5, "p0"):
        "8f54739e9bd016689e91cd75c0669322bd3d96ba1c3be4ff9e3029c76870690a",
    ("trefoil-pd", 5, "alexander"):
        "2cbf4eec48a04fc675f7ca7ecd1a08f6683bdd0e309939568400ad6f9f2bb8d8",
    ("trefoil-pd", 5, "default"):
        "1d06844616df2723615b9845f5daac5e1c11a4714891015ca390c7a2fae8862a",
    ("figure-eight", 3, "quantum-minus"):
        "743e02623961b4a9c7ddd4dc697cb7c24742c5ac7e342673b188fad2fa6db8dd",
    ("figure-eight", 3, "quantum-plus"):
        "65d1d4900dead7b3e0ab6ac3ee3b1fc5901ea86e9068a6a2ce5446dde0bd7869",
    ("figure-eight", 3, "jones"):
        "a5ea058dc8873f9ea3f9891b90085e775a91e84171595d56bd19d2a8d2b3ab88",
    ("figure-eight", 3, "p0"):
        "f7f57f877dfe4db9a7667b21da1e69d763090be654bf5ef25aee3a4e7fb93589",
    ("figure-eight", 3, "alexander"):
        "2822e752e873b1438e2d461ac77c74f4b3a3d00164a45f722ba6383315e5b390",
    ("figure-eight", 3, "default"):
        "b01a689a14f92435375d10924c555360c277565e62aab1ddcffe1ab09b2e8349",
    ("figure-eight", 5, "quantum-minus"):
        "e115ae0ce7b8f02bdd3ee9d197cd9e2738a155d6df7e4515160040c857489d71",
    ("figure-eight", 5, "quantum-plus"):
        "ec76c4fe55cbece780a5193992afd9de7f2935a1f3dbca68d59f604711277dbf",
    ("figure-eight", 5, "jones"):
        "4c6434ff63d3626ee9120dab90be0a232103e8e3ccb0783e92d82f9752e4409c",
    ("figure-eight", 5, "p0"):
        "2baaa5686eee2b0d8bfc1d397ad10cde8263ba95c4fa019c82d34bf68fa50392",
    ("figure-eight", 5, "alexander"):
        "a1e6a86267157cdb13c01c4f9a14f6680ff5122154f076e4c61b93285221cae0",
    ("figure-eight", 5, "default"):
        "9c3df379834a710c4f2321abd6ccabd6c22edc1659d6299e4c66d6977fa19803",
    ("hopf", 3, "quantum-minus"):
        "47db5b3ed35cef40450eb69e40bb5dc6d92f8b91cf45d0d22426948c749550c4",
    ("hopf", 3, "quantum-plus"):
        "29175736b3a6147c6f85dea493523620928165bb8150c95b1839847bbcf81d46",
    ("hopf", 3, "jones"):
        "6813e674a0c9f67ab8eecdfffa523a100cf57313cbdaf6d0a33088b15a3a1278",
    ("hopf", 3, "p0"):
        "67d5d17ff7da6078636fa27ec9b7bbcc8f9285cf4479a9f2cf422adf17a856e1",
    ("hopf", 3, "alexander"):
        "0980eee86ac2351e50fe49e48e1b6e9cf142be1e5a5af5342bdadd2651006338",
    ("hopf", 3, "default"):
        "a01723da9c6eaaa99b3858a3150c30bd80aa837783ca11e7770fd090e0e6c765",
    ("hopf", 5, "quantum-minus"):
        "6feb2dc87706715517a93db21844168fa02e790d7f1b68e90a588e381a527285",
    ("hopf", 5, "quantum-plus"):
        "b4679ae8bbe9b54b8fbbf9412d7c512e5b865b50c834b467d268f0e2425c68b1",
    ("hopf", 5, "jones"):
        "31a777fb4b37d5208fb33f8e309a315a2f81b19a6535db49781377f5e6bfbee6",
    ("hopf", 5, "p0"):
        "2cda3f97b7ec14e4496ba01f1c01c6d916f6a0468c7ef0c3362d6ee48a1a2d76",
    ("hopf", 5, "alexander"):
        "a6ff8265ccf9af769bcc14aa1c037b207d39f8795dda09ca858fe5ca04975273",
    ("hopf", 5, "default"):
        "c2d749f874f94d86a9737449430b5413f3691b04bd3bcc1f9e73b83456ff5d87",
    ("hopf-chain", 3, "quantum-minus"):
        "0710001a9e2ce80068612179f309f888211cc0b093a7f386b10d5e92ee955df0",
    ("hopf-chain", 3, "quantum-plus"):
        "54c4cf18e0d7af25df08a42d412f977fbd60d1c6b494d5a46b5ec6a7c2d508dd",
    ("hopf-chain", 3, "jones"):
        "5094b2e15f676f5304e71b162552efac9a32194228c4871a936c73a6684991d4",
    ("hopf-chain", 3, "p0"):
        "bf26f0e82101e54dd277e9f364367a0e87dd598b7fb915ecab27954103e45f36",
    ("hopf-chain", 3, "alexander"):
        "cecb7fe5c08f689e02658674fdafe06ddde59bed8c95719da569ee3d4a3c1ce2",
    ("hopf-chain", 3, "default"):
        "2f7ed26ec73716019e61855716fbfaf8228c82f2d6ea7fd71d97a618fdd70e86",
    ("hopf-chain", 5, "quantum-minus"):
        "7917cea4c07d223d20a6c47ce179368ae98a544e36faabd7c0f82642fea6a3ed",
    ("hopf-chain", 5, "quantum-plus"):
        "db9b0792e49b9e62ef6f3f91a4825e696b11dbf156ed9dab22df5ae0b8667d05",
    ("hopf-chain", 5, "jones"):
        "c3f0855f9a83aeaa3ea4402315e0b97f435ed62dff5006f77eb73984b00ef891",
    ("hopf-chain", 5, "p0"):
        "be651db177b7c63705b441ffaf36b11d44f20f4e953c62ae02e9a771bfc92080",
    ("hopf-chain", 5, "alexander"):
        "88fb1db1d82e10b5cb702939e9d02dcacf2fb6e0a34e325c7d341fb8d3c18f55",
    ("hopf-chain", 5, "default"):
        "03cd8a395bcbec68a65b6273096f70160295136b99edae2f6ef85af7d78448fb",
}

TEXT_REPORTS = {
    ("trefoil", 3): (
        'input (braid): 1 1 1\n'
        'quantum N=2: -q^-9 + q^-5 + q^-3 + q^-1\n'
        'quantum N=3: -q^-14 - q^-12 + q^-8 + 2q^-6 + q^-4 + q^-2\n'
        'criterion quantum-minus: {"per_n": {"2": [1, 2], "3": [1, 2]}, "possible_linking": [1, 2]}\n'
        'criterion quantum-plus: {"per_n": {"2": [[1, "+"], [2, "-"], [4, "-"], [5, "+"]], "3": [[1, "+"], [2, "+"], [4, "+"], [5, "+"]]}}\n'
        'criterion jones: {"passes": true}\n'
        'criterion p0: {"candidates": [1, 2]}\n'
        'criterion alexander: {"candidates": [2], "r": 1}\n'
        'combined candidates: [1, 2]\n'
        'verdict: undecided\n'
    ),
    ("hopf", 5): (
        'input (braid): 1 1\n'
        'quantum N=2: q^-6 + q^-4 + q^-2 + 1\n'
        'quantum N=3: q^-10 + 2q^-8 + 2q^-6 + 2q^-4 + q^-2 + 1\n'
        'criterion quantum-minus: {"per_n": {"2": [], "3": []}}\n'
        'criterion jones: {"passes": false}\n'
        'verdict: not-5-periodic\n'
        'note: criterion quantum-plus skipped: knots only\n'
        'note: criterion p0 skipped: knots only\n'
        'note: criterion alexander skipped: knots only\n'
    ),
}


def check_output(name, p, extra=()):
    flag, value = INPUTS[name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["check", flag, value, "-p", str(p), *extra])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("key", sorted(JSON_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_json_report(key):
    name, p, crit = key
    extra = ["--format", "json"]
    if crit != "default":
        extra += ["--criteria", crit]
    out = check_output(name, p, extra)
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(TEXT_REPORTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_text_report(key):
    assert check_output(*key) == TEXT_REPORTS[key]

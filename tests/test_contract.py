"""The behaviour contract as a corpus.

Each pipeline runs gen -> sample -> extract -> retrieve -> verify in process,
through herglotz.cli.main, and stops at the first stage that exits nonzero.
The test pins every exit code, the sha256 of each stage's stdout and stderr,
and the sha256 of every file the pipeline writes.

A change that moves a pinned output edits its pin and names the pipelines in
CHANGES.md. The pins hold for one numpy and LAPACK build: a library upgrade
re-pins on its own. ``python tests/test_contract.py`` prints the pins of the
code in the working tree.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

import pytest

from herglotz.cli import main

# name -> gen flags; the first eight are the cli benchmark workload's pipelines
PIPELINES = {
    **{
        f"d{d} {label} M={M} seed={seed}": ["--dim", str(d), "--max-degree", str(M),
                                            "--seed", str(seed), *flags]
        for seed in (0, 1)
        for d, M, flags, label in (
            (2, 3, [], "generic"),
            (2, 3, ["--zero-mean"], "zero-mean"),
            (3, 4, ["--zonal"], "zonal"),
            (3, 4, ["--zonal", "--zero-mean"], "zonal zero-mean"),
        )
    },
    "d2 real M=4 seed=0": ["--dim", "2", "--max-degree", "4", "--seed", "0", "--real"],
    "d2 all-r M=5 seed=0": ["--dim", "2", "--max-degree", "5", "--seed", "0", "--all-r"],
    "d2 sparse M=4 seed=0": ["--dim", "2", "--max-degree", "4", "--seed", "0", "--sparse"],
    "d3 zonal real M=5 seed=0": ["--dim", "3", "--max-degree", "5", "--seed", "0", "--zonal",
                                 "--real"],
    "d4 zonal M=3 seed=0": ["--dim", "4", "--max-degree", "3", "--seed", "0", "--zonal"],
}

STAGES = (
    ("gen", None),  # the pipeline's gen flags go here
    ("sample", ["u.field", "--out", "u.grid"]),
    ("extract", ["u.grid", "--out", "u.data"]),
    ("retrieve", ["u.data", "--out", "v.field"]),
    ("verify", ["u.field", "v.field"]),
)

EMPTY = hashlib.sha256(b"").hexdigest()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(gen_flags, workdir) -> dict:
    """Exit codes, stdout and stderr digests of each stage run, and the digest
    of every file in ``workdir`` afterwards; the stages run with workdir as
    the current directory, so every path they print is relative."""
    record = {"exit": [], "stdout": [], "stderr": []}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for stage, argv in STAGES:
            argv = [stage, *(argv or [*gen_flags, "--out", "u.field"])]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            record["exit"].append(code)
            record["stdout"].append(_sha(out.getvalue().encode()))
            record["stderr"].append(_sha(err.getvalue().encode()))
            if code != 0:
                break
        record["files"] = {p.name: _sha(p.read_bytes()) for p in sorted(pathlib.Path().iterdir())}
    finally:
        os.chdir(here)
    return record


PINS = {
    "d2 generic M=3 seed=0": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "b46f6cf426cc81fc3793bfa4724e15c4708192166129ee650aee74cde68b2c53",
            "b3b165431854465f9be0259005be01e8daa1f58c07e56bba1e7c7c87d9c4cfd9",
            "ca8e0305fcf3d7f896d11dcee58e95b90bdec20fb1557d32556bb052737e3c46",
            "1983ca8fa6c4af88d7d98c55e8735c7f8aed94b8cc2a84e018eeda30d271fc0d",
            "5e3db897da501d8bee08bc6810257400c8e39d5c7ce0e19f8c4e3b927a155f2d",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "850002ce63bf7fb471cc06ad794a544eb9dda3a3aa186aa3a808a746dfbf3d8c",
            "u.field": "3530fb1f909ed08626deb810a3965a8308fd1522230f02e77f1b990cd8fbc79a",
            "u.grid": "e1245c5b9ba988cc39fe81a34e6bbad653c8244b20ff21ca419ce65f7732cd45",
            "v.field": "ae7f40befd058e9354f9f2025e6d7bc5f1e4b5f3fea0c8c7e9266a30d800c59c",
        },
    },
    "d2 zero-mean M=3 seed=0": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "b46f6cf426cc81fc3793bfa4724e15c4708192166129ee650aee74cde68b2c53",
            "b3b165431854465f9be0259005be01e8daa1f58c07e56bba1e7c7c87d9c4cfd9",
            "38bd3f8d893e48ebc6924de06c7aa275bbec65423ef2e55c0413dbb857e7f3b0",
            "25617b7b491ac5c84585c28f2e507b8a66f46b9e70c41b91922cfbee34fae57c",
            "b5b8b19934816612143f15660451e1bfea3ac6dd8bd1bcb3ae48b8daa145275d",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "d2882d2c5343f60fe3ef1970cbf6a2391f86a7eadca1e3a7a3e8450415d32a16",
            "u.field": "cb24e93352a4c80e45489a8f9cf605309f9cfed021f6ac43b25c5cb79453ab78",
            "u.grid": "c212bc37c98762d8d80572a958a9909cb0d43dd6c03e34f8e2f844cfd89a1b3d",
            "v.field": "581abb6887bff8e513ee6864c8a8d2cadbba25b7260891fee9be6ccb9952b754",
        },
    },
    "d3 zonal M=4 seed=0": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "4506a56dea7879e3c64a065b56e4ff0dbc682be599bc6bbdcfef92df7d5504c9",
            "17acd0d892b5246e8cb3a4c1212fca826d08a01ebbc754ff8c8d44fd6992ec27",
            "fe85f4bf986f7cd92d9393086624d192f9bb7e3ddf2a83f8feb3c624a0fd3437",
            "45525df73a1c9a78d4c32fa2d5307f5f4802f7a8aed60cf0ded051f0ac966bd8",
            "1bce0b9bff35298e6897e61ada60207cbf6499006a70e2563da886bc24de46c1",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "862bb3f8a931f1525a050810f14560e285669a3f3a1e0cb59358c20e9d7c26ae",
            "u.field": "2b1062770df23891d4ea88159426ac56c829325a04f5da32b0f8a741bae0dd74",
            "u.grid": "e816c824821c9aad78cd59f0d5102c42c9eb5194b5fd66024a05b9ed4940cbd6",
            "v.field": "6ccd9d8056eace666dcd87ff92745c3393c26842844e7f650df9dc1669d383e5",
        },
    },
    "d3 zonal zero-mean M=4 seed=0": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "4506a56dea7879e3c64a065b56e4ff0dbc682be599bc6bbdcfef92df7d5504c9",
            "17acd0d892b5246e8cb3a4c1212fca826d08a01ebbc754ff8c8d44fd6992ec27",
            "212ee3e739c11a6f5558bd07cf7bc85cd0d7ceed3ac6e76fad19a45bf1ab47f7",
            "3399489277e32a5aeee3cf21b4a66baafba6ac52981ac6d92f2c15ad1942902b",
            "d4b4fbe0c6e94f6811d1f6030985b29cd3b3f669149a868052aa12d0efb3d207",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "1e37e1b98776f5f72a527bbc3f951cdcd61641054c13312dc66f10f3804b51bf",
            "u.field": "488ce97decaa1f9664104fbfb870e3ff8d6c8e479b0cbd78d95a0447bee4c520",
            "u.grid": "5ca17fbade23b069301f43c42ba890e8f147ef701e19c685f27ea8e413388eb5",
            "v.field": "bb647664d1f02abf125aac1704f8b131478339b131355a96d1edd2890777d0cb",
        },
    },
    "d2 generic M=3 seed=1": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "c6dbe5e7de6d8173fb75686d2c5c264d9b0294ee1b956725f8a8a7cfb0bc1978",
            "b3b165431854465f9be0259005be01e8daa1f58c07e56bba1e7c7c87d9c4cfd9",
            "89a23973110fb39b18c85124f6007d64c87ecaee54ab935fbe96d78007aa1f1f",
            "3b66ef2b85904a9538a542c11b37d9b4c9fd392f617269b3d4fae880e72d75dc",
            "ed78f49e85f03e83cd7ec9daf453cbaf94f821de4752f820dba52fe419bb8e51",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "9f7475417bc6b55de4cf90e33d63a2c0423380a3a1caa2c5aaf6b9c31a89ad32",
            "u.field": "87d779b749a6d63059c222f486d1335954e81d56490507f6614f7337739cf045",
            "u.grid": "ac771c825e0c1194e4da3b8ef177699ee1142039ab4826a934f180e1f3282199",
            "v.field": "aa01386c9e51aef24cd31bfe5ac17846a36e5ce2a6792726e6ad5ded44c2a6b5",
        },
    },
    "d2 zero-mean M=3 seed=1": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "c6dbe5e7de6d8173fb75686d2c5c264d9b0294ee1b956725f8a8a7cfb0bc1978",
            "b3b165431854465f9be0259005be01e8daa1f58c07e56bba1e7c7c87d9c4cfd9",
            "565c5277155693d1c7a34de9534e845328890d1933c9453885a2c042977930cf",
            "20539325a8a8c17b7b2c3390e515e4b791eb091b3380a75023c6a770c788b7cb",
            "968f4cc7ed58c71c1ac22509e357ecf19b55c556e6c6c7d300612183e5fcbde4",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "cc944d0e740a23f0316418b83f58e3c1f652ff5be2357b3e8cefb81a09b21923",
            "u.field": "571943fb453fba7067e33d476e93f91ec61538ba21139fcd7ffbff932c64a40a",
            "u.grid": "b89af815aedd99f49f1425ab764afe76ec86014e7194ec38046e68e3a4005e62",
            "v.field": "1088c9d4e79b2d8299e1298ee83e8508376ccfe99d14d628cff00b6bc98c2a32",
        },
    },
    "d3 zonal M=4 seed=1": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "8768968339a70e9232d09fe6110d73b7c8d0ddfdbf55e3a918f066f79bde23a9",
            "17acd0d892b5246e8cb3a4c1212fca826d08a01ebbc754ff8c8d44fd6992ec27",
            "ef9b82b01bd5eb98e3e2d42a87171c437a74091d3c684250d0d86cc7e7026c7e",
            "2622dc0c3ce0c44f5b31605bfe52e32227f29b1d0623088ffa1f266ebf180260",
            "0288361dc0d234bedf9d076d3c2639d6b62774d8f5e34a1f981110da114aa3d0",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "3db5020dabcaeecc97b489f4dfffc625bf7dded4a38d39fd15a5c6d5e2cb4786",
            "u.field": "c6fa807b33375063fc058476cf0fc5cf18eb538d42e64186f59afa6070109a2c",
            "u.grid": "9c56d583da253d2a1ac356feb27aeaeb8421308512059cf10882cf451543f199",
            "v.field": "36f5309c964a82fbc21a3e2cdf976cf983676d28a8d4eed73cf40768b3368088",
        },
    },
    "d3 zonal zero-mean M=4 seed=1": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "8768968339a70e9232d09fe6110d73b7c8d0ddfdbf55e3a918f066f79bde23a9",
            "17acd0d892b5246e8cb3a4c1212fca826d08a01ebbc754ff8c8d44fd6992ec27",
            "7bd79d2226c643d804e5c6fbc01e3ecfcf3213289c7ce6ae1c4c0a40c6d33009",
            "81be31bf7ab9f0546088fd9d9bfce78521adfcd464a5a9bd6cd462ee7155103d",
            "6d281e704eef0930807c631a678608892c96eb35aafc345f46e6315c54be91b6",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "d60a149fcea9fd702351cd542f1c750589a8478b43d12d1947fce508ea0fb30d",
            "u.field": "916921fd63aeaf5825745e3bbfa0f0f11d4dd3cf9fd880f04110986174ee50f6",
            "u.grid": "fcd7972817204c35c807c5a66a5bb64fd007d6f868ea6a5cf5b31af3e39a6a7b",
            "v.field": "7181fa8e18bbf33789c6c50066b2c8081305f1599c95c70042b1a25cdd6556be",
        },
    },
    "d2 real M=4 seed=0": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "561a91edc143f581bdbf1de8dc280a1f4e2220310dbb103bc033d4d2de5cd546",
            "cf50f4555c8033354b8a466854532f20e06d8ddab7bb403a67d487f831d534d9",
            "d99ee8a129d4f3d76703720a064e0c7411713b7d4cfb7f7fe9a22cce092a47b0",
            "4904c3c5aed1182d81848054ffe7958fa72b614ed7d3261109c51d1652f50acf",
            "4068f3bd70db54e26f221f9d6693e9ea870f68a7a9e807d5f96e0f122fa218f5",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "2d14b43d2ad8c7344d29f11476dc909a39bf0a170cda138e822956318ce82beb",
            "u.field": "f9d0a546e24657ff768e43249bc01d6dab12d5b3cfb9481655e1ee05994a232b",
            "u.grid": "720e70a501c6c30c9f82d7c44c0c9ff8b01bf7498c4be91903e2f6ca19c3c625",
            "v.field": "b9ef559f653485618d7135aab6b89b007dc7700858ccdb8622c45e8b0a525eab",
        },
    },
    "d2 all-r M=5 seed=0": {
        "exit": [0, 0, 0, 2],
        "stdout": [
            "83519f37711a06fd3188dbf292a627a1690f3d67bb871ab98068269af80f9afc",
            "8fd52ea329013bb1a21f40772866a4fdcd861af08f220c6bab8a5be15608c17e",
            "1cdbc3055f4397edf67766ed2706ba50aac2c35ca6dc28a200507efcca1f7764",
            EMPTY,
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            "6f2eb02bce17a488e5482730a7b0ee07510d5732013cb8a4cf26ae25acdd3c45",
        ],
        "files": {
            "u.data": "830f9cb4ee476d4eec70124b04ff847b89d682e5c5237231d687e370c87455b6",
            "u.field": "d8179d2e71711dd32cb94667e9036b3b3aac0738b3abe3e17f6bc24df1ae0028",
            "u.grid": "dd49937395c73d49aa99a4b5a5dc50b0a3d8c90180c1305df3aac13bb280b347",
        },
    },
    "d2 sparse M=4 seed=0": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "561a91edc143f581bdbf1de8dc280a1f4e2220310dbb103bc033d4d2de5cd546",
            "cf50f4555c8033354b8a466854532f20e06d8ddab7bb403a67d487f831d534d9",
            "e4f8d6efd605d3f47e45f1e4cc185c3dc5cabffc7458c7dac0f877e1d5e83add",
            "a4a09ef0ffd0340d3d7f1efed97470bd846316d2d907c1dd35219baa02d778f5",
            "202225be41876e0d269fd022edef6145ebef3b4394fdd2a82cedcf4370afb3fa",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "df55a1f2e312d4ef79347d8cad8c375a7259c84b33cb695f151593db1e4c9bbb",
            "u.field": "98f9dcc3b17bbc11f607d3ac25a86d8fd91429011cf8990a128baa62ebe51d4b",
            "u.grid": "a0bcb2dce149c817a7d29b54e5ea0fda055163fb887fa20bcabc5ca263c7df59",
            "v.field": "b95684210654537f6615f147a5fb6e5267ef323a77c5603303be79eade8838f7",
        },
    },
    "d3 zonal real M=5 seed=0": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "3c1593ba71849ae7214ea6df1681b4938f74da37859cd0b00a591813aa2952a7",
            "e2c6362bc294467e47e1b65720f2878e802b30d6422098507ed5a49b01d36cf4",
            "6c89a57e44b86c1973ebb93caa8d89a0d140d71dad830b4a92d3359b4aa42d01",
            "55f1b5a268310177a4857bc306d6605efcc64ce4a13c8249e866ee992ea6d887",
            "b7f78241f4838d25d43b0fe911f9f660bb7c05b7d65fd86a3fa39d1d3fef4a9c",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "5119bb75859dd0755785d597fa7b9c9037f209b594bd9f391d0e6d5fc4936db1",
            "u.field": "fe3aab7dc86af02a880372479e4939cc2e752864883832fd09b3bc8fd6c3abf2",
            "u.grid": "bee0731464dc397ceec064136a2113705d710c474e12a56d5bf774f059073187",
            "v.field": "6e8a54b1247eb5866d3cf2fa1097f3e0a33e84fb9adcf3eddd23843152191fcb",
        },
    },
    "d4 zonal M=3 seed=0": {
        "exit": [0, 0, 0, 0, 0],
        "stdout": [
            "9f927d47384114e28095ae1d180fb864c541cce17f70fe8fdd22a001d0a8b70c",
            "c3d1ca33ac802db3487a8af79edf80cb2a7087385bfdc66b5c677b5eac73c5e3",
            "1646263e6ec1ee154bcfff367bcb18225bd5af0dab8a3f27898cb2c9e4721a6e",
            "508fe5c665982ca0d09723f5029e375edae55733eafde16e5a9c77baf45d1e29",
            "cf803c38d993a3aa90da90171459e5839b405354e97b5597826556a180c3c986",
        ],
        "stderr": [
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
            EMPTY,
        ],
        "files": {
            "u.data": "ae5e3fb97eedc9df9d23f03c27ebb355f824edc7d0aebc5173720f2fec60951f",
            "u.field": "6b80f8903a6f72dcdd793302ee977e84e26aaa07d92cbb0c4a1ab524d16502c7",
            "u.grid": "a6f40e58d1978c7fa4282887aa35fdf36607d50fbfea5a5441ccd4d38ee5be8f",
            "v.field": "c739d42e69df76ac545e2b2a52c3f08ad61a7af5e0fc2d8eab45b66427d79067",
        },
    },
}


@pytest.mark.parametrize("name", list(PIPELINES))
def test_pipeline_outputs_match_their_pins(name, tmp_path):
    assert run_pipeline(PIPELINES[name], tmp_path) == PINS[name]


def test_every_pipeline_has_a_pin():
    assert sorted(PINS) == sorted(PIPELINES)


def _pin_text(record) -> str:
    def digest(h):
        return "EMPTY" if h == EMPTY else f'"{h}"'

    lines = [f'        "exit": {record["exit"]},']
    for stream in ("stdout", "stderr"):
        lines.append(f'        "{stream}": [')
        lines += [f"            {digest(h)}," for h in record[stream]]
        lines.append("        ],")
    lines.append('        "files": {')
    lines += [f'            "{n}": {digest(h)},' for n, h in record["files"].items()]
    lines.append("        },")
    return "\n".join(lines)


if __name__ == "__main__":
    print("PINS = {")
    for name, flags in PIPELINES.items():
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{name}": {{\n{_pin_text(run_pipeline(flags, tmp))}\n    }},')
    print("}")
    sys.exit(0)

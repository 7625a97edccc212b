"""Byte-identity gate for the CLI: the sha256 of stdout of each file
command on every shipped matroid file is pinned, so a change that alters
one output byte of `ginv`, `ginv --basis gamma`, `catenary`, `tutte`,
`config` or `detect-freeproduct` fails here.  `u12-fp-u23`, the free
product U(1,2) # U(2,3), is the one proper free product, so it pins a
detection that reports factors.  The commands run in process through
`cli.main`.

After a deliberate output change, regenerate the table by printing
`_digest(name, label)` for every pair and say why in CHANGES.md.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from gcat.cli import main
from conftest import DATA

COMMANDS = {
    "ginv": ("ginv",),
    "ginv-gamma": ("ginv", "--basis", "gamma"),
    "catenary": ("catenary",),
    "tutte": ("tutte",),
    "config": ("config",),
    "detect-freeproduct": ("detect-freeproduct",),
}

DIGESTS = {
    ("bowtie", "ginv"): "9f4d58eec5e1164190dc022f244e0e4f7aa10d98da7e183f95c0b165db7a06c5",
    ("bowtie", "ginv-gamma"): "1f5c24f865e1f235b5f72dd190bc4d2fe5d71cb1651cc4705f45202fcf411faa",
    ("bowtie", "catenary"): "1f5c24f865e1f235b5f72dd190bc4d2fe5d71cb1651cc4705f45202fcf411faa",
    ("bowtie", "tutte"): "bb2a5dff7cb0cc1c332f40c6a8f163b55ddc479c75d5441c02c5f96b0bb2a77e",
    ("bowtie", "config"): "f1b78bda226455d14bf5de3d09c369b426e9d134bc32ba24a2c7d339b8702e95",
    ("bowtie", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("dowling-z22", "ginv"): "81011398033f45006a275a88fc3527d9263c75637faa4f6bb08044b6e6f84f61",
    ("dowling-z22", "ginv-gamma"): "3b0ce9ec91f9a55b359e149686e9ef1c58051e95d150837b696849a66c8d73d0",
    ("dowling-z22", "catenary"): "3b0ce9ec91f9a55b359e149686e9ef1c58051e95d150837b696849a66c8d73d0",
    ("dowling-z22", "tutte"): "ae7e5bec2f274bc14d881c365eda57652b99b0663fd16c331ae178dbb7de0699",
    ("dowling-z22", "config"): "304a7f2b89d3f45eef852e2c30652ff3eba9633190e338f37a18ab5467544ae4",
    ("dowling-z22", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("dowling-z4", "ginv"): "81011398033f45006a275a88fc3527d9263c75637faa4f6bb08044b6e6f84f61",
    ("dowling-z4", "ginv-gamma"): "3b0ce9ec91f9a55b359e149686e9ef1c58051e95d150837b696849a66c8d73d0",
    ("dowling-z4", "catenary"): "3b0ce9ec91f9a55b359e149686e9ef1c58051e95d150837b696849a66c8d73d0",
    ("dowling-z4", "tutte"): "ae7e5bec2f274bc14d881c365eda57652b99b0663fd16c331ae178dbb7de0699",
    ("dowling-z4", "config"): "304a7f2b89d3f45eef852e2c30652ff3eba9633190e338f37a18ab5467544ae4",
    ("dowling-z4", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("fig1-m", "ginv"): "65649679b63ab9e79b733ef7f2be412efd9b30276bd9aee9c84b98180c70bbae",
    ("fig1-m", "ginv-gamma"): "f99c984af14722903f6cbe8aea4c41db3ef657047b43f1b5f93e4fd2c4d0b688",
    ("fig1-m", "catenary"): "f99c984af14722903f6cbe8aea4c41db3ef657047b43f1b5f93e4fd2c4d0b688",
    ("fig1-m", "tutte"): "6c764b81f43520049923d846d092ea6cc055660f35faf1c45f59ee93d501b624",
    ("fig1-m", "config"): "56322ea6c701cad8a91d7c0d855cea85ba9cfafaf411fe7200e4292de22cb979",
    ("fig1-m", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("fig1-n", "ginv"): "65649679b63ab9e79b733ef7f2be412efd9b30276bd9aee9c84b98180c70bbae",
    ("fig1-n", "ginv-gamma"): "f99c984af14722903f6cbe8aea4c41db3ef657047b43f1b5f93e4fd2c4d0b688",
    ("fig1-n", "catenary"): "f99c984af14722903f6cbe8aea4c41db3ef657047b43f1b5f93e4fd2c4d0b688",
    ("fig1-n", "tutte"): "6c764b81f43520049923d846d092ea6cc055660f35faf1c45f59ee93d501b624",
    ("fig1-n", "config"): "56322ea6c701cad8a91d7c0d855cea85ba9cfafaf411fe7200e4292de22cb979",
    ("fig1-n", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("fig2-m1", "ginv"): "a68d945ed0830ecb5c6b5764be52ad3f39da59cec7b62733da7e101766a09176",
    ("fig2-m1", "ginv-gamma"): "9eba112e813ffd646b18e22bfef9a6c7da8c2a5b13b5407327d60a6ea25be73d",
    ("fig2-m1", "catenary"): "9eba112e813ffd646b18e22bfef9a6c7da8c2a5b13b5407327d60a6ea25be73d",
    ("fig2-m1", "tutte"): "5abc362bd6a604fa3ea639da18efaa8e9280547b75f91cb012d595f0a4487a17",
    ("fig2-m1", "config"): "07c997c7d85b14175dd117ba6f233667a0ba0b000a41896644bbd65a5ddd7ac2",
    ("fig2-m1", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("fig2-m2", "ginv"): "d36227f70c431f5e9b24a36a2e3ddef08e58b23499acd45045e865c79f9f04c3",
    ("fig2-m2", "ginv-gamma"): "ce0ade279cad2bef6ae3a6a44c3c76658951e8ee5772b2b7d1fcb8d57437c880",
    ("fig2-m2", "catenary"): "ce0ade279cad2bef6ae3a6a44c3c76658951e8ee5772b2b7d1fcb8d57437c880",
    ("fig2-m2", "tutte"): "5abc362bd6a604fa3ea639da18efaa8e9280547b75f91cb012d595f0a4487a17",
    ("fig2-m2", "config"): "a17a91fb1149ba997bd19f58c92e1fd9297e87a2564237e7a669b0e4c0413fdb",
    ("fig2-m2", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("k4", "ginv"): "7bc656bd1da714ed552a2b5d47e1114571cb1ea6f462570725b6b8ef1b605d3b",
    ("k4", "ginv-gamma"): "1db3bcc0631e959d2fbc9e80ccc4bc16d34dc29ace3e182d420ac760d7bee29b",
    ("k4", "catenary"): "1db3bcc0631e959d2fbc9e80ccc4bc16d34dc29ace3e182d420ac760d7bee29b",
    ("k4", "tutte"): "71e5631731c680f73a50509bda3fa68db0c984ca59004343bd37ffa6041e287b",
    ("k4", "config"): "21e50e8f02c9630ffd8c6f67c2c449550bfd7bc5f711e03d89dd87f0da788311",
    ("k4", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("k5", "ginv"): "292958c2925f8ac7f6c9180925de6c6a95ab1c8afd525f4ea4ad3c7ce5c1e23f",
    ("k5", "ginv-gamma"): "b49a54f65034a50a27cd941ef48f1083b6e369ac0da6cb4aee2670d22b48bfd8",
    ("k5", "catenary"): "b49a54f65034a50a27cd941ef48f1083b6e369ac0da6cb4aee2670d22b48bfd8",
    ("k5", "tutte"): "0cd7fb73f9dd26c1fac52d0bb24501879854691f16f8e271f14d5f347a0de480",
    ("k5", "config"): "8c01f729ac45bc55bc3d5eee8e0d1d6c5e134a5cfe5ed5bb834f0c3bb807fea5",
    ("k5", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
    ("u12-fp-u23", "ginv"): "816d931121631c745d701c04096969ca87bb640ddbbc30ace4d588e2fb1b2910",
    ("u12-fp-u23", "ginv-gamma"): "44c4732d2c0b6855787d20fa9d1e1bfd4c584fdf699ea5617c0fe638c800c656",
    ("u12-fp-u23", "catenary"): "44c4732d2c0b6855787d20fa9d1e1bfd4c584fdf699ea5617c0fe638c800c656",
    ("u12-fp-u23", "tutte"): "9b1919c78ddfdfdd6c2c9ac8897d3601226b68fd5ff5da2844a10734ecc31b01",
    ("u12-fp-u23", "config"): "7bb276453f2b3288512b69bc6a20d403e741311906ad98d67e604b59495bdf1b",
    ("u12-fp-u23", "detect-freeproduct"): "c669153c69edf9c51aeb6162a7fd0c8bcfa793ea6c1b156631b8915d21454711",
    ("u23", "ginv"): "30eecf1339c4aa72c03db0f69edfcec44d1e13f9024a04cb5075194e46e3f0c5",
    ("u23", "ginv-gamma"): "0708066cf36b31282960fc34d4d327cff065e4c88d3bc210d3f7f0ab746e3c15",
    ("u23", "catenary"): "0708066cf36b31282960fc34d4d327cff065e4c88d3bc210d3f7f0ab746e3c15",
    ("u23", "tutte"): "b8191e1ed59af1f57609b716c048c926767dc4e6c5f9fa1d2bcad4d04dd68489",
    ("u23", "config"): "8e881f6b534a77a79ded0d1b1e53e2cc4c562372410bf126b55ddc0cb317fdb1",
    ("u23", "detect-freeproduct"): "44eb31d2bbd2a7ae0820987e976fe54da5994daf58fc0f5ed586b7034ea5017e",
}


def _digest(name: str, label: str) -> str:
    command, *options = COMMANDS[label]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([command, str(DATA / f"{name}.json"), *options]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_data_file_and_command_is_pinned():
    names = sorted(p.stem for p in DATA.glob("*.json"))
    assert set(DIGESTS) == {(n, c) for n in names for c in COMMANDS}


@pytest.mark.parametrize("name, label", list(DIGESTS))
def test_stdout_is_byte_identical(name, label):
    assert _digest(name, label) == DIGESTS[name, label]

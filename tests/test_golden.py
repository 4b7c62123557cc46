"""Golden CLI output: sha256 of stdout and the exit code, pinned across commits.

The first digests were recorded before the graph layout became an (order,
degree) array, the last seven before it became one row per generator; any
change to a report's bytes, including the order of checks, keys or problem
strings, shows up here.  Re-record a digest only when an output change is
intended, and say so in CHANGES.md.
"""

import hashlib

import pytest

from altspectra.cayley import build_family, export_edges
from altspectra.cli import main

GOLDEN = {
    "verify --family AG --n 6 --format json": (
        "d209117e5e61690286a4954e2eb79f8dd750aa9d179c8fcceb4110b2248f97de", 0),
    "verify --family AG --n 6 --format text": (
        "d434f2b7d0fc2ca5d0a0d047121e38283fe48ea5cd347588a9552ec76e5acc87", 0),
    "verify --family EAG --n 6 --format json": (
        "813a1e194e6dee327075ec9141b3723427eec8ec509d3cfc113b2baa29e0c2b5", 0),
    "verify --family EAG --n 6 --format text": (
        "98891d112d0187e4944dccf7b65ce5b02e39431e8f2580cc6cf391b987469e9d", 0),
    "verify --family CAG --n 6 --format json": (
        "69033c86862bd63b8e27d1358d3e13bfcc53cea7105aa5ec7b5f957e458f5c92", 0),
    "verify --family CAG --n 6 --format text": (
        "2227c6d1fbe557740e9d17abee3f8f710f6c3fb1e2567437f7e4f16300ba0420", 0),
    "decompose --family AG --n 5": (
        "1db2af2b7e82520d7da9e59d70b9d4b17ce3abe9c05fed9364c645cd6556c20f", 0),
    "decompose --family EAG --n 5": (
        "59e599caa00f4e0d706b66b820fc22f4c521f936da622fd3231d70ddff544671", 0),
    "decompose --family CAG --n 5": (
        "cf7077de34fa0c622b4b5abaec6447ec9a64a8b5135c5c807f3bcc24f2f3054c", 0),
    "cut --family AG --n 5": (
        "55931b11f801971b4b881290df5fdf716e65ae5ab72035b05168eee6466a54ef", 0),
    "cut --family EAG --n 5": (
        "687f649abac422347f6b3f3c850c8f7ee457910c04bcb939f973ed328b262cae", 0),
    "cut --family CAG --n 5": (
        "3ca39bdec3b5f533f2209d5d58c15faf1c314fe0c8af21f114f8b5dd1d796cd9", 0),
    "build --gens (1,2,3),(1,3,2) --n 5": (
        "41f24d678f4bf3375f093e03e5c7cffdead4e4678bcd106091b2b33ab469b9ea", 0),
    "decompose --family AG --n 6 --block 3": (
        "1d462118ba4d882e463bca149834b8610ec3490bff88b40c205af55f5691edea", 0),
    "decompose --family EAG --n 6 --block 3": (
        "18a53c24f4a652ddc9cc6d8b630ae0b70321f51fe255a1c685af872895e7eeeb", 0),
    "decompose --family CAG --n 6 --block 3": (
        "f4672112b191c382c256c77aeccf2b7dcb06841786d94da686c20756c108bcab", 0),
    "verify --family EAG --n 6 --block 4 --seed 11 --format json": (
        "813a1e194e6dee327075ec9141b3723427eec8ec509d3cfc113b2baa29e0c2b5", 0),
    "verify --family CAG --n 6 --block 4 --seed 11 --format json": (
        "69033c86862bd63b8e27d1358d3e13bfcc53cea7105aa5ec7b5f957e458f5c92", 0),
    "spectrum --family EAG --n 5 --format json": (
        "fe6532cc12be164555c867a3ce11058d499446599a88e7912537488ce921b2cb", 0),
    "hmin --family AG --n 4": (
        "3440c1c016e70f8857687f8bc5d6a46a049783e852827ea93dde56805bfb1b86", 0),
    "gap --family CAG --n 6 --format json": (
        "287ad3ebf0a12291487f1e5efac34a8dedd3c9729d09e5958e15cc28821eae28", 0),
    "cut --family CAG --n 6 --block 6": (
        "7c140a7be0171da9212af180a7c18b81ef7ad4c9c33ceb5b948d58fa7cbf11c0", 0),
    "build --family EAG --n 6 --format json": (
        "3499b2902b757074bca56fbd373902f3ad94e7778c83f8e77e502a75d4328dc2", 0),
    "verify --family AG --n 5 --block 5 --format json": (
        "80fc2db026c68f0f9a05928f04e36c9824410311171c064f43d344f735b164d8", 0),
    "gap --gens (1,2,3),(1,3,2),(1,2,3,4,5,6,7),(1,7,6,5,4,3,2) --n 7 --format json": (
        "5bafbf54de9d0249d43e39d5672a9a325ad51d471b1ee7f84cf95feae7c06eea", 0),
}

EXPORT_AG5 = "a91b0cb3980ccf503bc20176404efa9e16e4cb8bf74816dc3cc97c3c0c48e8be"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_stdout_matches_golden_digest(capsys, command):
    digest, exit_code = GOLDEN[command]
    code = main(command.split(" "))
    out = capsys.readouterr().out
    assert (_sha256(out.encode()), code) == (digest, exit_code)


def test_exported_edges_match_golden_digest(tmp_path):
    path = tmp_path / "edges.txt"
    export_edges(build_family("AG", 5), path)
    assert _sha256(path.read_bytes()) == EXPORT_AG5

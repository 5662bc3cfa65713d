"""Byte contract of the CLI outputs for the bundled scenarios.

Runs `clusterq run`, `graph --kind task` and `graph --kind command` for each
bundled scenario at 1 and 3 nodes and compares the sha256 of every output
file against the digests below. A change that alters an output on purpose
updates the digests and says so in CHANGES.md. No bundled scenario has a
per-task target, more than one device model or a task that rewrites its
buffer in place, so inline scenarios pin those paths too, and one with no
tasks pins the empty trace.
"""

import hashlib
import json
import os

import pytest

from clusterq import cli

GOLDEN = {
    ("saxpy", 1): {
        "buf_x.json": "71de00c23c5efccc624874f94be39e5b9ece8655635949ca664efb446dda8769",
        "buf_y.json": "ac4fd76c86394e8e26cf12bc019c7dfab4b6df9f3526c14644987b7d78e06310",
        "buf_z.json": "143830408fc02a783f167413a5492a2076225ebbcb773150449e8785bb63e431",
        "command.dot": "86abfdb09d6d683f776e1e94e352477c8f98fa24aa4de36f4b9acd05f5447480",
        "report.json": "dba597ba058fb441555340ce23ab983e21338870d23d5180730e761feb7835df",
        "task.dot": "b16cfcb2ea3358135dd4e29060303cf78132a43f5c84fc3acfe682e6d435ec6a",
        "trace.json": "34a23e60b56a6ac5c84fe8e4f34d4608fe983971e2990fd62731b9bb82101ad2",
    },
    ("saxpy", 3): {
        "buf_x.json": "71de00c23c5efccc624874f94be39e5b9ece8655635949ca664efb446dda8769",
        "buf_y.json": "ac4fd76c86394e8e26cf12bc019c7dfab4b6df9f3526c14644987b7d78e06310",
        "buf_z.json": "143830408fc02a783f167413a5492a2076225ebbcb773150449e8785bb63e431",
        "command.dot": "da948f3bc21dd2dbe16e82c31a10598340e3fabd32fcc82bc9de5a20bd296ff4",
        "report.json": "4b76ebb34e7092915ed9964176b43957023f43013a0aa56cc5c235a3dfb708f0",
        "task.dot": "b16cfcb2ea3358135dd4e29060303cf78132a43f5c84fc3acfe682e6d435ec6a",
        "trace.json": "772c62aff5f82919ceb5ffaaafa1332a9c3bde4c80fc3273c7afaeebe6ad6081",
    },
    ("stencil", 1): {
        "buf_a.json": "e66fd466523da96fd172f9bd1b543fb4470861a1f25fa056e324136d1b995535",
        "buf_b.json": "8518dc01dc5fb2300bebd217845b0b3b0171da04335fd2a6c8e39ec8c178227d",
        "command.dot": "38ac8f582a93d4c1123688016a27adb7e81c92e63d13c8ea915035a2db2cf37e",
        "report.json": "69542950e72db3bfe3c83f1c36ae22346685dc5bc263e40733f328af23b94bf4",
        "task.dot": "30d2a40e2f05d3767a261c86f2a88b11404f6ccd66d037c0d1a7991b9f81c18b",
        "trace.json": "2ca08350faa4b2e20257ca45d555f71e557298625423776b2b2d527dd27337a3",
    },
    ("stencil", 3): {
        "buf_a.json": "e66fd466523da96fd172f9bd1b543fb4470861a1f25fa056e324136d1b995535",
        "buf_b.json": "8518dc01dc5fb2300bebd217845b0b3b0171da04335fd2a6c8e39ec8c178227d",
        "command.dot": "a2fd31f691006784351509760d1ae915d869ef209cdfbdf962e9bfd507c06b6f",
        "report.json": "29a94fe6aa1f1c80034300b8b3a5ea8fbf152e27e2ef398278fe0ad840f3c1eb",
        "task.dot": "30d2a40e2f05d3767a261c86f2a88b11404f6ccd66d037c0d1a7991b9f81c18b",
        "trace.json": "4c0c6a4b3c597ce7bddc81be0030cb51065ae2ca4e0ff187b683bc5a8f062503",
    },
    ("pipeline", 1): {
        "buf_out.json": "02224c33d453a3bd7581f870ae11e3c442ba426ce0b3e38b2fbb871202f5ab2c",
        "buf_u.json": "b2b8eb93659eaf94b597cf044ec41869663f900b2e7967b16804bbec13ce985f",
        "buf_v.json": "d8f6c6c7dc94809645cc11375e2412eb0f4cd430c8130e0ff5743b519ac385f2",
        "buf_w.json": "cfab72bdc3beaf3c16162e9194abb2d899140b057e05935e297dd8644cc476d2",
        "command.dot": "44b31717d1341aa9cc1a6d4f5cd8752c60aa654d6a78661662bff2eba1435f48",
        "report.json": "aa4d02448269a6a1d51db790ca8e1a96e7e89a20fcbd61cde8d9017f4e65d7ac",
        "task.dot": "387a654182fc8c625f2b382d8dbb9a599f8254f6062175a25b5943e3fb936608",
        "trace.json": "1b07d09f3f4e88db2441f90f417c22e3b269dfc03c2fe3e145b3ac1c647bc59d",
    },
    ("pipeline", 3): {
        "buf_out.json": "02224c33d453a3bd7581f870ae11e3c442ba426ce0b3e38b2fbb871202f5ab2c",
        "buf_u.json": "b2b8eb93659eaf94b597cf044ec41869663f900b2e7967b16804bbec13ce985f",
        "buf_v.json": "d8f6c6c7dc94809645cc11375e2412eb0f4cd430c8130e0ff5743b519ac385f2",
        "buf_w.json": "cfab72bdc3beaf3c16162e9194abb2d899140b057e05935e297dd8644cc476d2",
        "command.dot": "d77ff9be87aaabccca5ccd805378c271589d141bdca2b3ede7ce57138087f0f7",
        "report.json": "4f8b49b08d5a8fdbed5c88c37f3ae0dd1de7bb0517fdca6cbfaf203472ce4e3a",
        "task.dot": "387a654182fc8c625f2b382d8dbb9a599f8254f6062175a25b5943e3fb936608",
        "trace.json": "4a15e1eb662e0675d1d5eac198d135ce9237aff772ae58bcc2cfb34bd8880c4e",
    },
}


def output_digests(scenario, nodes, out_dir):
    """Write every CLI output for `scenario` at `nodes` into `out_dir` and
    return {file name: sha256 hex digest}."""
    n = str(nodes)
    assert cli.main(["run", scenario, "--nodes", n, "--out", str(out_dir)]) == 0
    for kind in ("task", "command"):
        dot = os.path.join(out_dir, f"{kind}.dot")
        assert cli.main(["graph", scenario, "--nodes", n, "--kind", kind, "--out", dot]) == 0
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("scenario", ["saxpy", "stencil", "pipeline"])
@pytest.mark.parametrize("nodes", [1, 3])
def test_outputs_match_golden_digests(tmp_path, capsys, scenario, nodes):
    assert output_digests(scenario, nodes, tmp_path) == GOLDEN[(scenario, nodes)]


def per_task_target_scenario(nodes):
    """Queue target MIN_ENERGY, three tasks that override it, beta > 0 and
    nodes alternating between two device models with different levels."""
    fast = {"levels_ghz": [0.5, 1.0, 1.5, 2.0], "f_ref_ghz": 1.0, "p_static_w": 10.0,
            "p_dyn_ref_w": 10.0, "alpha_exp": 3.0, "throughput_ref": 1e9}
    slow = {"levels_ghz": [0.6, 0.9, 1.2, 1.8, 2.4], "f_ref_ghz": 1.2, "p_static_w": 4.0,
            "p_dyn_ref_w": 15.0, "alpha_exp": 2.5, "throughput_ref": 5e8}
    return {
        "target": "MIN_ENERGY",
        "devices": [(fast, slow)[n % 2] for n in range(nodes)],
        "buffers": [
            {"name": "a", "extent": [12], "init": "iota"},
            {"name": "b", "extent": [12], "init": "zeros"},
            {"name": "c", "extent": [12], "init": "zeros"},
        ],
        "tasks": [
            {"name": "spread", "range": [12], "beta": 0.25,
             "reads": [{"buffer": "a", "mapper": {"kind": "neighborhood", "radius": 1}}],
             "writes": ["b"], "body": "a[i-1] + a[i] + a[i+1]"},
            {"name": "ed2p", "range": [12], "beta": 0.5, "target": "MIN_ED2P",
             "reads": ["b"], "writes": ["c"], "body": "b[i] * 2"},
            {"name": "edp", "range": [12], "beta": 0.1, "target": "MIN_EDP",
             "reads": [{"buffer": "c", "mapper": "all"}], "writes": ["a"], "body": "c[i] + 1"},
            {"name": "perf", "range": [12], "target": "MAX_PERF",
             "reads": ["a", "b"], "writes": ["c"], "body": "a[i] - b[i]"},
        ],
    }


PER_TASK_TARGET_GOLDEN = {
    1: {
        "buf_a.json": "8a3a924de6ec5114e7ec256bc1ab8c43098a68a438bededbb5612a2c79cba821",
        "buf_b.json": "de888f031da86eea3df77f2c4862f5074e7dec13c366bbaa06ebe15548849842",
        "buf_c.json": "228818387fb65eb9c1dfedeb741f1fb1280d12f5d28cca1232e75ae44a4010c0",
        "command.dot": "eef60e25d4aa05828f7817210f61dd672b4221d8268d081c42d0fd5eca3c38de",
        "report.json": "084f890aba4d51e67669661b15254348cd47279f571758134ec9cee9873a41f0",
        "task.dot": "4106a9169ffb80c1dd8159fcc1932760ef6c906b5065c00d663e940caa813cc7",
        "trace.json": "ec0a4990ed53d08d10f5e2c996568e20dfd5a8f797e2811dd658d28fff3b7817",
    },
    3: {
        "buf_a.json": "8a3a924de6ec5114e7ec256bc1ab8c43098a68a438bededbb5612a2c79cba821",
        "buf_b.json": "de888f031da86eea3df77f2c4862f5074e7dec13c366bbaa06ebe15548849842",
        "buf_c.json": "228818387fb65eb9c1dfedeb741f1fb1280d12f5d28cca1232e75ae44a4010c0",
        "command.dot": "aea84742bdc485da19a35cb991958777b2c02b6d05fa05dbc05bbcef1b509392",
        "report.json": "b0647f9ad057e1b5507bfc3f96344a845e5cafde390c03e479ac273f8defca1e",
        "task.dot": "4106a9169ffb80c1dd8159fcc1932760ef6c906b5065c00d663e940caa813cc7",
        "trace.json": "93ea9982cdfe78021c84bfe4f4baba197a257ebdf6ab26380b88310c20046530",
    },
}


@pytest.mark.parametrize("nodes", [1, 3])
def test_per_task_target_outputs_match_golden_digests(tmp_path, capsys, nodes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(per_task_target_scenario(nodes)), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert output_digests(str(path), nodes, out_dir) == PER_TASK_TARGET_GOLDEN[nodes]


# Three in-place relax sweeps of one buffer: at 3 nodes an Execute waits
# for its task's Pushes out of its node that carry halo rows it overwrites.
IN_PLACE_SCENARIO = {
    "buffers": [{"name": "a", "extent": [12], "init": "iota"}],
    "tasks": [
        {"name": f"relax{k}", "range": [12],
         "reads": [{"buffer": "a", "name": "r", "mapper": {"kind": "neighborhood", "radius": 1}}],
         "writes": ["a"], "body": "(r[i-1] + r[i] + r[i+1]) / 3"}
        for k in range(3)
    ],
}

IN_PLACE_GOLDEN = {
    1: {
        "buf_a.json": "78cafedd3468f4f079c5b31470cb358f25687acf70552dccac5c618ab240ed05",
        "command.dot": "140cc26fdf6c38da1a5b756936f8330e8208b28c32cf768de659450477445f93",
        "report.json": "aa474f5be9c68e8eb30fcedbd1a1b204609b394f9db2e2dafc6a4a54b672b8ec",
        "task.dot": "3a6b69cf766047b293c3e90e3ac0883d396cddb664fae469f12331271f8b9e2c",
        "trace.json": "115c8bfca31196963224f634a5a7df88e930395accc1177e999db9fb918badd5",
    },
    3: {
        "buf_a.json": "78cafedd3468f4f079c5b31470cb358f25687acf70552dccac5c618ab240ed05",
        "command.dot": "28411d5eec1c4d27aa16e9a3f1efc1d4df53aa2d1fba28bc1b888aa7c6e00930",
        "report.json": "f9bf155722be15434cf13c6d9e3ed1b2ac15f922fea59b0f1b5b21882d4ee37a",
        "task.dot": "3a6b69cf766047b293c3e90e3ac0883d396cddb664fae469f12331271f8b9e2c",
        "trace.json": "5b5aef47b5525714f453a20cf5bc11e1178a9a3fd60d138d22ad3579e86c3e4e",
    },
}


@pytest.mark.parametrize("nodes", [1, 3])
def test_in_place_outputs_match_golden_digests(tmp_path, capsys, nodes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(IN_PLACE_SCENARIO), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert output_digests(str(path), nodes, out_dir) == IN_PLACE_GOLDEN[nodes]


# No tasks, so no commands: trace.json holds an empty event list, and the
# buffers are dumped as initialized, one float64 in 2D and one int64.
NO_TASK_SCENARIO = {
    "buffers": [
        {"name": "u", "extent": [3, 2], "init": "iota"},
        {"name": "k", "extent": [4], "element_kind": "int64",
         "init": {"kind": "constant", "value": -7}},
    ],
    "tasks": [],
}

NO_TASK_GOLDEN = {
    1: {
        "buf_k.json": "7b2d354320313727a12ae3ae0919ff66c8af912af9eb079d44c9f5aa1b5b69e6",
        "buf_u.json": "0518185095c43c8aff6a31e0626033e939c5c86c14f766bf18840963db254a80",
        "command.dot": "8934dbc532e4240ee375216e782d8d8df6f995ba0a804a41dc2fb161bc4dfa01",
        "report.json": "5528a5a243db4749af80f9776a74d300b9bca346d0c216034d5eb4059aad4db4",
        "task.dot": "7890005a87a4459053d24e50ecc88e657e03138cef60e099e2bb6fc4b882247b",
        "trace.json": "bceb0e163148a7ff8878a972a8fedcabf6edffb4fc6de9677c6afc1bd140451a",
    },
    3: {
        "buf_k.json": "7b2d354320313727a12ae3ae0919ff66c8af912af9eb079d44c9f5aa1b5b69e6",
        "buf_u.json": "0518185095c43c8aff6a31e0626033e939c5c86c14f766bf18840963db254a80",
        "command.dot": "8934dbc532e4240ee375216e782d8d8df6f995ba0a804a41dc2fb161bc4dfa01",
        "report.json": "b2bdb0c803619be31dc9b1600ecec299ec6009e6596d660cb12843e417e258bb",
        "task.dot": "7890005a87a4459053d24e50ecc88e657e03138cef60e099e2bb6fc4b882247b",
        "trace.json": "bceb0e163148a7ff8878a972a8fedcabf6edffb4fc6de9677c6afc1bd140451a",
    },
}


@pytest.mark.parametrize("nodes", [1, 3])
def test_no_task_outputs_match_golden_digests(tmp_path, capsys, nodes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(NO_TASK_SCENARIO), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert output_digests(str(path), nodes, out_dir) == NO_TASK_GOLDEN[nodes]
    trace = (out_dir / "trace.json").read_text(encoding="utf-8")
    assert trace == '{\n  "traceEvents": []\n}\n'

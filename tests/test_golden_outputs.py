"""Byte-identity guard: seeded CLI runs pinned by the sha256 of every output.

A change that is meant to keep every output bit (a faster learner round, a
new writer) must keep these digests.  A change that alters a seeded stream
on purpose updates them and says so in CHANGES.md.  Each run's manifest,
fed back to the same subcommand, must reproduce the run byte for byte.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from vpbandit import cli, game

CONFIGS = {
    "game-n10-exp3": (
        "simulate-game",
        {
            "schema_version": 1, "kind": "game", "seed": 7, "n": 10, "horizon": 1500,
            "replicas": 2, "attacker": "exp3",
            "scaling": {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 2.0, "std": 0.8},
        },
    ),
    "game-n1000-greedy": (
        "simulate-game",
        {
            "schema_version": 1, "kind": "game", "seed": 8, "n": 1000, "horizon": 300,
            "replicas": 1, "attacker": "greedy",
            "scaling": {"kind": "uniform_discrete", "a": 1, "b": 3},
        },
    ),
    "game-n4-greedy-payoff": (
        "simulate-game",
        {
            "schema_version": 1, "kind": "game", "seed": 3, "n": 4, "horizon": 1500,
            "replicas": 2, "attacker": "greedy", "payoff": [0.9, 0.6, 0.4, 0.2],
            "scaling": {"kind": "uniform_discrete", "a": 1, "b": 3},
        },
    ),
    "single-harmonic": (
        "simulate-single",
        {
            "schema_version": 1, "kind": "single_player", "seed": 9,
            "environment": {"type": "harmonic_bernoulli", "n_arms": 10},
            "scaling": {"kind": "truncated_gaussian", "a": 1, "b": 3, "mean": 2.0, "std": 0.8},
            "horizon": 1500, "replicas": 2, "record_weights": True,
        },
    ),
    # N above game.SMALL_PLAN_ARMS, so the learner's plans are numpy arrays,
    # and a large eta concentrates the weights until capping fires
    "single-harmonic-n80-capped": (
        "simulate-single",
        {
            "schema_version": 1, "kind": "single_player", "seed": 14,
            "environment": {"type": "harmonic_bernoulli", "n_arms": 80},
            "scaling": {"kind": "uniform_discrete", "a": 2, "b": 4}, "eta": 0.3,
            "horizon": 1000, "replicas": 2, "record_weights": True,
        },
    ),
    "bounds-all-keys": (
        "bounds",
        {
            "schema_version": 1, "kind": "bounds", "seed": 11, "n": 12, "a": 2, "b": 5,
            "nu": 3.4, "horizon": 20000, "eta": 0.05, "gmax": 4321.5,
        },
    ),
    "sweep": (
        "sweep",
        {
            "schema_version": 1, "kind": "sweep", "seed": 12, "n": 9, "a": 1, "b": 4,
            "mu_min": 0.1, "mu_max": 0.95, "steps": 37,
        },
    ),
    "ingest": (
        "ingest",
        {
            "schema_version": 1, "kind": "ingest", "seed": 13, "path": "log.csv",
            "column_map": {"identity": "Arbitration_ID", "injected_value": "A"},
            "round_window": 0.05,
        },
    ),
    "compare-budget": (
        "compare",
        {
            "schema_version": 1, "kind": "compare", "seed": 10,
            "environment": {"type": "synthetic_trace", "n_arms": 8, "attacked": [1, 4, 6],
                            "horizon": 800, "n_bursts": 40},
            "scaling": {"kind": "budget_threshold", "a": 1, "b": 3, "threshold": 0.1},
        },
    ),
}

DIGESTS = {
    "game-n10-exp3": {
        "curves.csv": "c51f0fc358f7f5b4b616ad5556e5ddefcbf7af263a0c616a9166f608e60726b3",
        "manifest.json": "cd4074fc93a8c5b0e63589dace27b4eaf9c489430b970f75f5f4d7366ede0dcf",
        "summary.txt": "3d0161c44715a59c30c2bb8908630863112b3d086f75b59abe4d7b72d16ecabe",
        "trace_000.csv": "f44f80e9053fece54b3e7e755f871410814659d393f15201940aec96ceceb57c",
        "trace_001.csv": "6b7dcefb10c3eaf6c5a38c0b6921cd251d8885b7aab4250f73ce00748ce2b970",
    },
    "game-n1000-greedy": {
        "curves.csv": "45cd40b4d9568e55ad1671f58f66b9434f2978a567ba1dab9b4a76263288abe1",
        "manifest.json": "e35f2362e4a2cefbf6c5352869625fba8a45b0cd555d7017f396e7a387d873d1",
        "summary.txt": "f248919aab74aae812504a840af4b228138b50a78561c7e45925ea6f87274039",
        "trace_000.csv": "84ac30767a73b49f6da8052a5220ae815d2b2089d73246005d3d054f4608f797",
    },
    "game-n4-greedy-payoff": {
        "curves.csv": "8bf4e25c91ee0acbf9a16259f90fe977c07be920d4d9681a5ca05821e9ddf708",
        "manifest.json": "8f317a0c3c4d52ad34d22e61326e6f19aa8e4438d50c42d1cffc5aa68b364006",
        "summary.txt": "62c29ed20390b9dec83704e34f50719cdaacace3563ad963a83c10e1309e76a6",
        "trace_000.csv": "87cb0530190c70942d42c1bd55e91d5df0f67ca858845afb357f4797a09775f5",
        "trace_001.csv": "5018ef657153640fdab25afed63d2b951c0b23f462fbcc2a46cb11ee073054b4",
    },
    "single-harmonic": {
        "curves.csv": "17114eb9fc370ac47c698476d7058d395425818e3cd74e2276b14bb30e0ab821",
        "manifest.json": "fe4b7259d61858ff58cf5e898fc35b802023c2b3d49b5f884debefb73008f321",
        "summary.txt": "a5ec6949a9e3882bb12c2cec4fdafa21b26111df143c56390054b78c968881e5",
        "weights.csv": "d468b036cd7d9553972ea2e4c0a0625ccdf1e581df2dcbb655f0bbf9a447cc71",
    },
    "single-harmonic-n80-capped": {
        "curves.csv": "11a896ee16a45da73ccd9182d3d915ee694c2ff1b99c5435109beeebc426e224",
        "manifest.json": "ea97dae06e6af31bcef7257fd914bd0001d3d1acf2db2dfdfd95cc8b45a411ce",
        "summary.txt": "820803b60a2278d4b7746797bab83751da0ad4bd573fbebcf28703751a470846",
        "weights.csv": "11c72ec1584c3d41b7a596d89575778947cc82eb830170edc88e4051ba0d53a4",
    },
    "bounds-all-keys": {
        "manifest.json": "7ff041ccd4c748c1081fe9f4da25256dc34cfb856c401022286ac9d4c6745095",
        "summary.txt": "728686b982b76a2a60cd750c30b7f96d5f9eed97a559f93fe1aeb55b597ef0b3",
    },
    "sweep": {
        "manifest.json": "fbd110eea2978f532a6be2264a5830ec9df35643805661d558e7d4155473038c",
        "summary.txt": "1fb3ca250b862993c6d82232d0d17b134a081d76facc88767ecdd429e9b2e5f7",
        "sweep.csv": "06e577267738177310a12014dd2525a57d73944ec3d6eab7466e7fa74d3ca36d",
    },
    "ingest": {
        "manifest.json": "144d5edb4b6d9feec47fbc6c3401a43cd4650b0e89191eaaf25a7c26c2f5b99d",
        "summary.txt": "851a10455de52eb327d7553297252a8e905d48266b727fdd81f921e1aec41393",
        "trace.csv": "d05f57935f77755c128c8f76d49b5df09f2844eee83a072dfe6ed63c5f536b19",
        "trace.meta": "e6096f38cc7e9bc1b22b85e74539e036b52f75ade4e2fa0de9d9d65089b9410c",
    },
    "compare-budget": {
        "compare.csv": "d07afccb92d3f60695745e9d599e9ad1cb4feaddd99a3aed58c2da067780964d",
        "manifest.json": "6c2e60631c1277c00bd872a50db06526e477dce59b83c0a78d62ef113b62ef17",
        "summary.txt": "ff7310be02a2631d0e683d07c0dba4635f6038a0e2203135453f540cdd88f686",
    },
}


def _write_log(path):
    """The ``ingest`` case's log: a byte-order mark, CRLF line ends and a blank line."""
    rows = ["Timestamp,Arbitration_ID,DLC,Flag"]
    for k in range(300):
        ident = f"0x{(k * 37) % 11:03X}"
        flag = "A" if k % 7 in (2, 3) and ident in ("0x002", "0x005", "0x009") else "N"
        rows.append(f"{0.0123 * k + 1.5:.4f},{ident},8,{flag}")
    rows.insert(120, "")
    path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(rows).encode() + b"\r\n")


def _digests(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def _run(tmp_path, monkeypatch, name):
    """The digests of the config's run, in ``tmp_path / "out"``."""
    command, cfg = CONFIGS[name]
    # the log path is relative, so the manifest and trace.meta bytes do not name tmp_path
    monkeypatch.chdir(tmp_path)
    _write_log(tmp_path / "log.csv")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 0
    return _digests(out)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, name):
    assert _run(tmp_path, monkeypatch, name) == DIGESTS[name]


def _cap_calls(tmp_path, monkeypatch, name):
    """The config's run, with the type and length of the weights of every
    ``cap_threshold`` call the learner made."""
    calls = []
    cap_threshold = game.cap_threshold

    def counted(weights, target):
        calls.append((type(weights), len(weights)))
        return cap_threshold(weights, target)

    monkeypatch.setattr(game, "cap_threshold", counted)
    _run(tmp_path, monkeypatch, name)
    return calls


def test_large_n_case_builds_capped_numpy_plans(tmp_path, monkeypatch):
    # the one pinned learner run above the small-plan bound: multi-play, with
    # capping firing, so the numpy builder's capped branch is pinned too
    _, cfg = CONFIGS["single-harmonic-n80-capped"]
    assert cfg["environment"]["n_arms"] > game.SMALL_PLAN_ARMS and cfg["scaling"]["b"] >= 2
    calls = _cap_calls(tmp_path, monkeypatch, "single-harmonic-n80-capped")
    assert len(calls) > 100 and set(calls) == {(np.ndarray, 80)}


def test_small_n_case_builds_capped_list_plans(tmp_path, monkeypatch):
    # a pinned learner run at or below the small-plan bound, with capping
    # firing, so capping on a list of Python floats is pinned too
    _, cfg = CONFIGS["single-harmonic"]
    assert cfg["environment"]["n_arms"] <= game.SMALL_PLAN_ARMS and cfg["scaling"]["b"] >= 2
    calls = _cap_calls(tmp_path, monkeypatch, "single-harmonic")
    assert len(calls) > 100 and set(calls) == {(list, 10)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_manifest_reproduces_the_run(tmp_path, monkeypatch, name):
    # the manifest is a config the same subcommand accepts, and rerunning it
    # writes the same bytes, the manifest included
    first = _run(tmp_path, monkeypatch, name)
    manifest, again = tmp_path / "out" / "manifest.json", tmp_path / "again"
    assert cli.main([CONFIGS[name][0], "--config", str(manifest), "--out", str(again)]) == 0
    assert _digests(again) == first

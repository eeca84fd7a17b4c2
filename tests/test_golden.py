"""Golden digests of the README command-line walkthrough.

Runs walkthrough steps 1-7 through ``feedlab.cli.main`` at a small size, plus
``pca`` without ``--impressions`` and ``--posts`` and a config saved with
``write_json(path, config_to_dict(config))``, and pins the SHA-256 of every output file except
``resolved_config.json`` (which records paths). A refactor that claims to
preserve behaviour must leave these digests unchanged; a change that alters
outputs on purpose updates them and says why.
"""

import hashlib
import json

from feedlab.cli import main
from feedlab.data import write_json
from feedlab.sim import GenerativeParams, SimConfig, SyntheticPool, config_to_dict

SIM_CONFIG = {
    "participants": 40,
    "feed_length": 120,
    "news_per_feed": 90,
    "pool": {"kind": "synthetic"},
    "params": {},
    "seed": 42,
}

# non-default in every section, so the saved file shows each one
SAVED_CONFIG = SimConfig(
    participants=10,
    feed_length=40,
    news_per_feed=30,
    pool=SyntheticPool(n_true_news=20, n_false_news=20, n_opinion=5, n_mundane=5),
    params=GenerativeParams(motor_mean=0.9),
    seed=77,
)

GOLDEN = {
    "clean/audit.json": "7b70a5d0c427964078568740bd9cb971d7dba7975a9c63b921a8eeb002a00134",
    "clean/cleaned.csv": "679b5d63a7792d8c44cd1b619c83bdd37e88040acfc37a1b43c9b43d465d5189",
    "clean/movement_model.json": "933ad668c7410f242ad4d11d6dacf8be3780bc6cdeefb388e100c2f979d0a5cf",
    "exp/policy_outcomes.csv": "612ad9a705ee17c321741190ef3a65e42339087be8713250ee8eac45b845d955",
    "fit/fit_dwell.json": "ce302fc8972f9fbd19ba14b145bbeb551962f314e6755cc6542a13c2c92af46a",
    "fit/fit_dwell.txt": "6a8a16eb9998a9634463602dc3180846356b4e37c1913230bc4543f149a75fbb",
    "fit/fit_engage.json": "e9f19556cd1176df466a2ac7fd68776e80720b486fcbaeeed07eb49762ba0444",
    "fit/fit_engage.txt": "f4270e6995e6d8c600a5e950f666cf00739be055c9f334331b7e372ec892d00c",
    "pca/correlations.csv": "d818bf992a44ba1abc2f0385f9612a4296fa20526a3b6618cddc3c0a719f4f77",
    "pca/pca_fit.json": "878e2f4b5256bfbbe33fb11bde1f534234adcc3352f591a4bf43d525aaab4167",
    "pca/scores.csv": "4dad81efb8146b8b6a5f77a886c0ae122b17060bc51bbde6890d505ae342e0a5",
    "pca/top_posts.txt": "723f056b3f4a7f94004bb5b64c669cae86aa598230222dbc5ca01ecff51d9fa9",
    "pca_plain/correlations.csv": "17e1469e96289f1e30f314e5d56fdde8d89d80da8d2f90a7cf6f1808d02dbd6b",
    "pca_plain/pca_fit.json": "878e2f4b5256bfbbe33fb11bde1f534234adcc3352f591a4bf43d525aaab4167",
    "pca_plain/scores.csv": "d7b7fd1860b9cc587efa5d1c5ff0f9bde9bf104d2c1bd4ce9da72c5c002a7605",
    "pca_plain/top_posts.txt": "c316880c6d337bd9276c4a3113cec6773a08a24c63bed6b39c1963af8a3f6113",
    "rec/recovery_report.json": "a3041ea01dc8949de2b2a71ae8f56f2235e235a18418f5bee919f21c945d47b4",
    "saved_config.json": "150b1e3ff50f826a9d4be71ca0700ee38399a5bf10b117ca2dc98fa402f3c84a",
    "sim/dataset.json": "e5edd70c9a983fa5cd2a818ec3f9793cc3b2a4027423afbd8421a079129269cd",
    "sim/impressions.csv": "b383b3d34f7ea8a1685a42162382a16235031b5bd51f0436ddc443dc2533d65b",
    "sim/posts.csv": "71ae841ec32ea38a1a4242488e050fed41dbc91a212db51730b1c7f2adc9ab7e",
    "sim/ratings.csv": "b81582d5813cb0ec398fe71d459fbad7c121b6cb677020c933ad1459c43ee302",
}


def run_walkthrough(root):
    config = root / "sim_config.json"
    config.write_text(json.dumps(SIM_CONFIG))
    out = root / "out"
    steps = [
        ["simulate", "--config", config, "--output-dir", out / "sim"],
        [
            "preprocess", "--input", out / "sim" / "impressions.csv",
            "--output-dir", out / "clean",
            "--rules.max-dwell", 30, "--rules.edge-trim", 3, "--rules.min-dwell", 0.15,
        ],
        [
            "pca", "--input", out / "sim" / "ratings.csv",
            "--impressions", out / "clean" / "cleaned.csv",
            "--posts", out / "sim" / "posts.csv", "--output-dir", out / "pca",
        ],
        [
            "fit", "--input", out / "clean" / "cleaned.csv",
            "--scores", out / "pca" / "scores.csv", "--model", "dwell",
            "--output-dir", out / "fit",
        ],
        [
            "fit", "--input", out / "clean" / "cleaned.csv",
            "--scores", out / "pca" / "scores.csv", "--model", "engage",
            "--output-dir", out / "fit",
        ],
        [
            "experiment", "--config", config, "--output-dir", out / "exp",
            "--policies", "dwell_opt,engage_opt,random,chronological",
            "-k", 20, "--replications", 20,
        ],
        ["recover", "--config", config, "--output-dir", out / "rec", "--replications", 2],
        ["report", "--input", out / "fit"],
        ["pca", "--input", out / "sim" / "ratings.csv", "--output-dir", out / "pca_plain"],
    ]
    for step in steps:
        assert main([str(a) for a in step]) == 0, step
    write_json(out / "saved_config.json", config_to_dict(SAVED_CONFIG))
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "resolved_config.json"
    }


def test_walkthrough_outputs_match_golden_digests(tmp_path):
    assert run_walkthrough(tmp_path) == GOLDEN

"""Golden output digests: the bytes every command writes, pinned across changes.

Each case runs `pt4al pretext`, `plan` and `run` on a small config and
compares the sha256 of every deterministic output file with the table
below. The synthetic corpus arrays are pinned the same way. The table was
recorded once from the code as it stood before any performance work, so a
refactor or optimisation that claims to keep behaviour must leave it
untouched. A second table pins `coldstart`, `correlate`, `ablate` and runs
on an IDX-file dataset; it was recorded before the switch to array pools
and the strategy table, from the code that still had per-image objects.
Its `pretext-two-eval-chunks` row was recorded later, from the code that
still built the whole rotation set. Its `pretext-two-extract-chunks` row
was recorded from the code that still ran a separate loss-extraction pass
after training, in 8,192-sample chunks. The case keys keep the names of
that layout; the rotation pass now makes one forward call per orientation.
A third table pins the JSON manifest of every case, with the case's tmp
directory replaced by a fixed token.
A change that alters an output byte on purpose re-records the affected
rows and says why in CHANGES.md.

The digests are tied to float64 arithmetic on numpy 2.4.6 with OpenBLAS
0.3.31 and its SkylakeX kernel. Another numpy or BLAS build, or another
kernel (OpenBLAS picks one for the CPU), may round matrix products
differently, and then the table has to be re-recorded on that build. So
every digest failure names the kernel the digests were recorded on and the
kernel of the run.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pt4al import learner, loop
from pt4al.cli import main
from pt4al.data import gen_synthetic
from pt4al.learner import ConvSpec, LearnerConfig

from conftest import blas_core

SRC = Path(__file__).resolve().parent.parent / "src"

KERNEL = f"digests recorded on the SkylakeX OpenBLAS kernel; this run uses {blas_core()}"

OUTPUTS = ("losses.csv", "plan.csv", "reports.csv", "queries.csv", "pretext_checkpoint.json")

BASE = {
    "seed": 3,
    "dataset": {"kind": "synthetic", "classes": 3, "n_per_class": 50,
                "size": 10, "noise": 1.0, "test_fraction": 0.2},
    "pretext": {"hidden": [16], "epochs": 3, "batch_size": 16, "learning_rate": 0.3},
    "main": {"hidden": [16], "epochs": 4, "batch_size": 16, "learning_rate": 0.3},
    "al": {"iterations": 3, "budget": 8, "strategy": "pt4al"},
}

CONV = {"filters": 4, "kernel": 3}

# Overrides of BASE, one dict per section. On BASE the rotation model is
# perfect after epoch 0. The two "pretext-" cases slow it down: one first
# reaches accuracy 1.0 at epoch 1 of 4, the other never does and keeps
# epoch 2 of a plateau.
CASES = {
    "pt4al": {},
    "random": {"al": {"strategy": "random"}},
    "entropy": {"al": {"strategy": "entropy"}},
    "pt4al-sampling-only": {"al": {"strategy": "pt4al-sampling-only"}},
    "pt4al-pretext-only-high": {"al": {"strategy": "pt4al-pretext-only-high"}},
    "pt4al-pretext-only-low": {"al": {"strategy": "pt4al-pretext-only-low"}},
    "pt4al-low-loss-first": {"al": {"strategy": "pt4al-low-loss-first"}},
    "conv": {"pretext": {"conv": CONV}, "main": {"conv": CONV}},
    "imbalanced": {"dataset": {"imbalance_counts": [20, 35, 50]}},
    "pretext-perfect-at-epoch-1": {"pretext": {"learning_rate": 0.01, "epochs": 4}},
    "pretext-never-perfect": {"pretext": {"learning_rate": 0.005, "epochs": 4}},
    # Floats written as JSON integers, which the manifest and checkpoint echo as written.
    "int-valued-floats": {"dataset": {"noise": 1, "imbalance_factor": 0.02},
                          "pretext": {"learning_rate": 1, "init_scale": 2},
                          "main": {"init_scale": 2, "decay_factor": 1}},
}

GOLDEN_RUNS: dict[str, dict[str, str]] = {
    "conv": {
        "losses.csv": "176bf49333b4903b1fd2e50ebc8f5c0495c7f774fc1c27535e8e1175811e569f",
        "plan.csv": "4e246ceba9a9e82e9e5733726a2a79d01a6fd5f0e740b729b664f918098273cb",
        "reports.csv": "d41ef198259e1c46aeff80782af39a7afbc347faa441afea0c788c8ecf468e38",
        "queries.csv": "f903ad49d7f8d3f2920a8942bf26e00214c5346aa681e9b072ea54b867e04a65",
        "pretext_checkpoint.json": "68ac28b864dfea090344183129659cdcfe2f0f3f13d194bc4d5d4f49bca7c90f",
    },
    "entropy": {
        "losses.csv": "327a381c4f4c5bbe3672f37fe28c3f0027a3d606daa9cdf1e42c47627a2ed811",
        "plan.csv": "e2fd8dd2229010b1c46647a73b00bd912734c2b359d9acd90c55b27d46deb351",
        "reports.csv": "d13a800e48378c1173fe88db2c3dd71a03f79e4fbbd807c7af768b30d7f83a68",
        "queries.csv": "a5717c4b31fdbe0bf5f30262517dd1b8f09aa6c687a0c91b142c70fd52f2283d",
        "pretext_checkpoint.json": "c66ad66d83176b5480f978ae23b0f88e634d46979482738eaceb65a0b0276226",
    },
    "imbalanced": {
        "losses.csv": "9dfb5eca0caf75d0d8abfa0a024ece2112ff8461278a0e3eaf9234e6008d3bd6",
        "plan.csv": "b61d6861f529c234ef5ae65a7eca51916dd96f80c2a3eb86490205bb6e0a0d02",
        "reports.csv": "52ebe5187fa3222f58dd4518a8cd12533ba326e94e81c36dc89dc4e8f895af40",
        "queries.csv": "e2b1e16cc87ee4c87864af3c01bbf0d2e8c00733f7d4e73a8ee988fbd2e7368d",
        "pretext_checkpoint.json": "40ce7024513d704ea8d06f205b0ad794feae32d4efd8b8e038e56349f19f94da",
    },
    "pretext-never-perfect": {
        "losses.csv": "deb25adc0ef515c274de28af5d540d880e6570f35a4dbfac7235409ea0fbe527",
        "plan.csv": "6c6b99ea3a4d182c32f2cdefa8d75ab02cc078635cc8712c2ac848bc22ba7240",
        "reports.csv": "029ad3beb90f69bbfe80903882f1699f0921b0594f9775368ed0048fecce30d6",
        "queries.csv": "5a00c315ba11721b2fa51ffbef10e6a49cea1acdd4ebf7362fb46493dc139701",
        "pretext_checkpoint.json": "3096525eb5f670a33b1b9f3f9bb0c6ba33f50b01a7ac8f3c85b734287ac53dee",
    },
    "pretext-perfect-at-epoch-1": {
        "losses.csv": "0badce34ba2af5e6e74d0828ebcdae8dd32601ad0a6d1148bf9b27bdd4967af0",
        "plan.csv": "4a1bc55adab731b9057d49fef48b408a3047173147be7a45af96fcd716b35d6f",
        "reports.csv": "9920e6744ea7a5ed433359fcdeee0496209853ee17e8847228715d753694418e",
        "queries.csv": "f41967abfbe7f49871022b9956000ae3baa37a5e79d287db2333d3314acc5b89",
        "pretext_checkpoint.json": "900ec8755aa73a663b6d867dd30af74b8a3def0083aa79c347eb6d063874e4fb",
    },
    "pt4al": {
        "losses.csv": "327a381c4f4c5bbe3672f37fe28c3f0027a3d606daa9cdf1e42c47627a2ed811",
        "plan.csv": "e2fd8dd2229010b1c46647a73b00bd912734c2b359d9acd90c55b27d46deb351",
        "reports.csv": "cfeb292d527c003d4ae42aa88a204e0ca054f834ed3058b536c8e3e6569f0f4b",
        "queries.csv": "5f30b7bda5141dbbbfa7798bdd4bf2567f98114c7fbcaedd020d5092d6ae9a9f",
        "pretext_checkpoint.json": "c66ad66d83176b5480f978ae23b0f88e634d46979482738eaceb65a0b0276226",
    },
    "pt4al-low-loss-first": {
        "losses.csv": "327a381c4f4c5bbe3672f37fe28c3f0027a3d606daa9cdf1e42c47627a2ed811",
        "plan.csv": "a6acb7f8e261e81f5db4acc38c7e11984d866760b83b4ad631003ef7d727f99b",
        "reports.csv": "3b7a9acdacc49893dc773113f6d9d6fb1ecfcd94d8217d757083361a76cef2c5",
        "queries.csv": "abb3b1dffb9fe5a4a62e5aeafddcc9d86c0a6670b9ce6e872ed5160e044a47c3",
        "pretext_checkpoint.json": "c66ad66d83176b5480f978ae23b0f88e634d46979482738eaceb65a0b0276226",
    },
    "pt4al-pretext-only-high": {
        "losses.csv": "327a381c4f4c5bbe3672f37fe28c3f0027a3d606daa9cdf1e42c47627a2ed811",
        "plan.csv": "e2fd8dd2229010b1c46647a73b00bd912734c2b359d9acd90c55b27d46deb351",
        "reports.csv": "3d86ebc9ff4c740c536d1e25a5c31ec1d2de9f35c8a3979a9bea81d4516da4f6",
        "queries.csv": "7bde7f794e6ae604533af82121374299eaedc822a67892ca874bcd76d47f0356",
        "pretext_checkpoint.json": "c66ad66d83176b5480f978ae23b0f88e634d46979482738eaceb65a0b0276226",
    },
    "pt4al-pretext-only-low": {
        "losses.csv": "327a381c4f4c5bbe3672f37fe28c3f0027a3d606daa9cdf1e42c47627a2ed811",
        "plan.csv": "e2fd8dd2229010b1c46647a73b00bd912734c2b359d9acd90c55b27d46deb351",
        "reports.csv": "e09fdac12b0808b2f262f0822da00d09b31f33de2390b5bf386750a3a5435d3d",
        "queries.csv": "a36a84ac97fe5eb3126788e5604fbc507812bbd0b6f3ca2986c506433a554135",
        "pretext_checkpoint.json": "c66ad66d83176b5480f978ae23b0f88e634d46979482738eaceb65a0b0276226",
    },
    "pt4al-sampling-only": {
        "losses.csv": "327a381c4f4c5bbe3672f37fe28c3f0027a3d606daa9cdf1e42c47627a2ed811",
        "plan.csv": "e2fd8dd2229010b1c46647a73b00bd912734c2b359d9acd90c55b27d46deb351",
        "reports.csv": "60459fdc61ff6673fb3bc7053d5f2f9e239262519ed8de411c276de5722098af",
        "queries.csv": "eecac1fa985b38f8c5051ddf9fcf63c70e725a2fa3721d1cb7e09eb33ca5b36c",
        "pretext_checkpoint.json": "c66ad66d83176b5480f978ae23b0f88e634d46979482738eaceb65a0b0276226",
    },
    "int-valued-floats": {
        "losses.csv": "19ceba2d56bfb903ddaa3652fd84707920ca5dfb1164d4f71a277d45185844a0",
        "plan.csv": "d2d0fd3333e898cdcc11436e1c1b1427027237a14baf8ae510a7512ffaa59556",
        "reports.csv": "870fc45652e2090621aa9aa56df3626f610b4b880878df62a4cabaf9881b4def",
        "queries.csv": "0a3ae510f4f00513d899981736c500d264daa6b0ece53222dcec297f16b9526a",
        "pretext_checkpoint.json": "1e0d6aa53ab938adcf5e1ca5f1b530257389af0ebb864683761ba686c0db9653",
    },
    "random": {
        "losses.csv": "327a381c4f4c5bbe3672f37fe28c3f0027a3d606daa9cdf1e42c47627a2ed811",
        "plan.csv": "e2fd8dd2229010b1c46647a73b00bd912734c2b359d9acd90c55b27d46deb351",
        "reports.csv": "4ed76b45d7aa958e0ec2385c628db50a3071a7303c296e5b6d6a1fe98f5330be",
        "queries.csv": "6945caf73ec24ec238fd45332c73abeee2159db75e468e8b0b616b4baefed377",
        "pretext_checkpoint.json": "c66ad66d83176b5480f978ae23b0f88e634d46979482738eaceb65a0b0276226",
    },
}

IDX_DATASET = {"kind": "idx", "images": "images.idx", "labels": "labels.idx"}

# name -> (BASE overrides, commands run in order, pinned output files).
# "{out}" in a command names the output directory. The IDX cases read the
# files that write_idx_files puts into the case directory.
COMMAND_CASES: dict[str, tuple[dict, list[list[str]], tuple[str, ...]]] = {
    "coldstart": ({}, [["coldstart", "--seeds", "1,2,3"]], ("coldstart_runs.csv", "coldstart_summary.csv")),
    "correlate": ({}, [["correlate"]], ("correlation.csv", "scatter.csv")),
    "correlate-checkpoint": ({}, [["pretext"], ["correlate", "--pretext-checkpoint", "{out}/pretext_checkpoint.json"]],
                             ("correlation.csv", "scatter.csv")),
    **{f"ablate-{variant}": ({}, [["ablate", "--variant", variant]],
                             tuple(f"ablate_{variant.replace('-', '_')}_{kind}.csv" for kind in ("reports", "queries")))
       for variant in ("sampling-only", "pretext-only-high", "pretext-only-low", "low-loss-first")},
    "idx-pt4al": ({"dataset": IDX_DATASET}, [["pretext"], ["run"]],
                  ("losses.csv", "reports.csv", "queries.csv", "pretext_checkpoint.json")),
    "idx-entropy": ({"dataset": IDX_DATASET, "al": {"strategy": "entropy"}}, [["pretext"], ["run"]],
                    ("losses.csv", "reports.csv", "queries.csv", "pretext_checkpoint.json")),
    # 2,240 unlabeled samples: each epoch's rotation pass runs every
    # orientation over 2,240 rows, in four pieces. The slow learning rate keeps
    # the accuracy below 1.0 (0.888 at epoch 3), so all four epochs run and
    # the pass's hit count picks the kept one.
    "pretext-two-eval-chunks": ({"dataset": {"classes": 4, "n_per_class": 700},
                                 "pretext": {"learning_rate": 0.0002, "epochs": 4}},
                                [["pretext"]], ("losses.csv", "pretext_checkpoint.json")),
    # 8,320 unlabeled samples, 128 past an 8,192-row boundary: each
    # orientation's pass ends in one 640-row piece, where the 8,192-sample
    # chunks of the earlier layout gave those 128 a piece of their own; the
    # bits are the same. Best epoch 1 of 2.
    "pretext-two-extract-chunks": ({"dataset": {"classes": 4, "n_per_class": 2600, "size": 10},
                                    "pretext": {"hidden": [16], "learning_rate": 0.0002, "epochs": 2}},
                                   [["pretext"]], ("losses.csv", "pretext_checkpoint.json")),
}

GOLDEN_COMMANDS: dict[str, dict[str, str]] = {
    "ablate-low-loss-first": {
        "ablate_low_loss_first_reports.csv": "3b7a9acdacc49893dc773113f6d9d6fb1ecfcd94d8217d757083361a76cef2c5",
        "ablate_low_loss_first_queries.csv": "abb3b1dffb9fe5a4a62e5aeafddcc9d86c0a6670b9ce6e872ed5160e044a47c3",
    },
    "ablate-pretext-only-high": {
        "ablate_pretext_only_high_reports.csv": "3d86ebc9ff4c740c536d1e25a5c31ec1d2de9f35c8a3979a9bea81d4516da4f6",
        "ablate_pretext_only_high_queries.csv": "7bde7f794e6ae604533af82121374299eaedc822a67892ca874bcd76d47f0356",
    },
    "ablate-pretext-only-low": {
        "ablate_pretext_only_low_reports.csv": "e09fdac12b0808b2f262f0822da00d09b31f33de2390b5bf386750a3a5435d3d",
        "ablate_pretext_only_low_queries.csv": "a36a84ac97fe5eb3126788e5604fbc507812bbd0b6f3ca2986c506433a554135",
    },
    "ablate-sampling-only": {
        "ablate_sampling_only_reports.csv": "60459fdc61ff6673fb3bc7053d5f2f9e239262519ed8de411c276de5722098af",
        "ablate_sampling_only_queries.csv": "eecac1fa985b38f8c5051ddf9fcf63c70e725a2fa3721d1cb7e09eb33ca5b36c",
    },
    "coldstart": {
        "coldstart_runs.csv": "0b32bed0225d80594babb1d1ad5128d8b1a99673ddf2ac9be05340704d2241e7",
        "coldstart_summary.csv": "815ee1e063e99ab5b7a8d7bd08a254ff4c3c9f144d9619be802b2850b15ff868",
    },
    "correlate": {
        "correlation.csv": "3d0e42f75c1095618e94eae1b0615a676f02e80939b512e8341f23f821476c7a",
        "scatter.csv": "03963e92bca3c40043c9e788dd6b3b36dbc171205be0eadd01801adc3529c030",
    },
    "correlate-checkpoint": {
        "correlation.csv": "3d0e42f75c1095618e94eae1b0615a676f02e80939b512e8341f23f821476c7a",
        "scatter.csv": "03963e92bca3c40043c9e788dd6b3b36dbc171205be0eadd01801adc3529c030",
    },
    "idx-entropy": {
        "losses.csv": "9676a5cacd436226a6673633723fd5356d14bd31e35893e2fd5cf35af7282088",
        "reports.csv": "53bf2d3436a342d2f784a130cdee3f25dddf5ab862e3961744a6a5c859290c5e",
        "queries.csv": "31ace781ed7dcb584ead28bf45fcb2c8afea095e80f607035c9d53485d8fb1c0",
        "pretext_checkpoint.json": "e2365f9769b6a1a0c563d1b3b8be6efb173e2bc38b9cd6640d8f230e5a5a61d3",
    },
    "idx-pt4al": {
        "losses.csv": "9676a5cacd436226a6673633723fd5356d14bd31e35893e2fd5cf35af7282088",
        "reports.csv": "010be17ef094161a13fce9cca8d034313167627c5e2ad45d94c6947b80a76954",
        "queries.csv": "cd5c86ca51ca98f2e73137877cb6c43d44a87712480e5fcad99e64e7e5bdb403",
        "pretext_checkpoint.json": "e2365f9769b6a1a0c563d1b3b8be6efb173e2bc38b9cd6640d8f230e5a5a61d3",
    },
    "pretext-two-eval-chunks": {
        "losses.csv": "1dc912a6b325ddc5925c85524f49e723a517a7037df37682360265472e420e08",
        "pretext_checkpoint.json": "77829b5661f5bc3b331479d8a66ee2830f39a3f1ca1f5bf008f62047486644a6",
    },
    "pretext-two-extract-chunks": {
        "losses.csv": "ef85b3c4275a45f4f55da38c94151238cae8ebd6a0b2b6448c0075cb84e3001d",
        "pretext_checkpoint.json": "db73f1d033be0544d570423ab1905d73a104197e63627a6fede2b93669de3432",
    },
}

# case -> sha256 of every *_manifest.json that a CASES or COMMAND_CASES row
# writes, with the case's tmp directory replaced by "<tmp>". Recorded before
# the config fields were declared once on their dataclasses, so the config
# echo cannot drift with how it is produced.
GOLDEN_MANIFESTS: dict[str, dict[str, str]] = {
    "ablate-low-loss-first": {
        "ablate_low_loss_first_manifest.json": "c2093a34dc3d0da96c708d6de19c15557bba05003fc43094c2a4afec6ed5f890",
    },
    "ablate-pretext-only-high": {
        "ablate_pretext_only_high_manifest.json": "3e7e89924be83dde1ffccb516683b6cfef2ea346278f5fe778814fa7aa34d36d",
    },
    "ablate-pretext-only-low": {
        "ablate_pretext_only_low_manifest.json": "4a5bdfa7e84daf95d2244996c5e335a921ea1d06654192de18b3113f4f955808",
    },
    "ablate-sampling-only": {
        "ablate_sampling_only_manifest.json": "2caa14ec8f841e7d2431e8ae83a1451018f1294c2f08ed0deea292208d01e94e",
    },
    "coldstart": {
        "coldstart_manifest.json": "f4ea0ffb1735438870853de616b41a0201436d6aba0cf5c16c4736ee582f832e",
    },
    "conv": {
        "plan_manifest.json": "5c237cc0e5cf03aa0be46ea0292bb9fa13d8f24774184d40c6ab0dc3e2bc5cb7",
        "pretext_manifest.json": "8be5ef16cbe6078f07ceb4b0f29de4aa6c8a35f638a434a77f9e38c5ad39b854",
        "run_manifest.json": "1d4c5a40b5960edbd30f3de2809e5f180d33e436366bcee50f0ba9e7ebc660ee",
    },
    "correlate": {
        "correlate_manifest.json": "305d790bfb7d9993fa621a792b92c3545fc96175566d09e54b84867ffec54382",
    },
    "correlate-checkpoint": {
        "correlate_manifest.json": "f0298b721a442d0634fa7111dacd051d5b759ab8cfce5297a0d493545f8814be",
        "pretext_manifest.json": "be3620f199e8cbd3417ba5045b1e5081ea4b9c4a099cc091363800021a7ef4f2",
    },
    "entropy": {
        "plan_manifest.json": "ec3cd5c6bd2e4f3a307bc3eeb0e8b24fcc91dbb4743827a869e66481c09ea0b1",
        "pretext_manifest.json": "12afbd2237e93cab12f043ac05b24c228f156e98b34bd12dfb8bc291739486c5",
        "run_manifest.json": "5e8e978d396c06c935a4e90cd56f331209e1f630dc6452eec5aa6a5869b6182e",
    },
    "idx-entropy": {
        "pretext_manifest.json": "355c97e3ea468db8e1ac2509d10907e459da2847038ca6e4e7777c84a3a91f72",
        "run_manifest.json": "ef611614807ba63c2692c061d44649cda279dec60f86ff545342889e579ce066",
    },
    "idx-pt4al": {
        "pretext_manifest.json": "e811cee78846511cc644c3b57cc296655182211c05c853468a11b7c27de60f92",
        "run_manifest.json": "b5d52af62277fba79226a0ab164d768339a012cf8f578fa5a26b9ad595cdbc2e",
    },
    "imbalanced": {
        "plan_manifest.json": "6f030a17c9b41b8f0772f65d77736798954360d02846f7f980b22d8e9276cbe3",
        "pretext_manifest.json": "7df25c370997e8717108a848a73ec133ac698e26417a831e26f9cb5615d3369d",
        "run_manifest.json": "91a214ff1c0ea5bae5b2c03cf7d1adae842dd2bd7357a6b4657945a76c51ea64",
    },
    "int-valued-floats": {
        "plan_manifest.json": "f8c7d385e7b1da104d697aced7381edc24e3edbae2d68874f0fe48923e7dd816",
        "pretext_manifest.json": "bec1849d61b9ebe7a00541950d61a2f097ce38fb7113675ea78a2442c223b205",
        "run_manifest.json": "e46c76a32ab111f3ffad35b65c62de726e769df171a3b05a356d611766a6a18c",
    },
    "pretext-never-perfect": {
        "plan_manifest.json": "931b41d36802826e9a1133162d81489a55a11fb532fd5276f01bb8ccf0314f64",
        "pretext_manifest.json": "2a4099fdf750c66b336e5ca9bbe93f046666d9f1899a293e22b157fc0903a6c4",
        "run_manifest.json": "27619a1db343610f00c2fb287543ac88845b59b9b2165180d90d70a247619f49",
    },
    "pretext-perfect-at-epoch-1": {
        "plan_manifest.json": "e4967c7c909cfcea0677518059cfc1def1c933a44164439a8803ef8b33886e8f",
        "pretext_manifest.json": "ccf12708bc8af1869f60a01a5824173b317f077ecb52bac0b6b2d836733d9143",
        "run_manifest.json": "61af23696af3af78033b39716191a01cec75d10b685fd20d496930d02c7647d4",
    },
    "pretext-two-eval-chunks": {
        "pretext_manifest.json": "a197c3cef9a15d345fb3e046aa0d8981b8169de89d0e2844ca60e7967585b2db",
    },
    "pretext-two-extract-chunks": {
        "pretext_manifest.json": "467373962eac7ff2bbe766d279ac44b0b0c2dd6c9ea76e9846df57a11d885706",
    },
    "pt4al": {
        "plan_manifest.json": "566d908048637259a8c3119dc555a84209997f14ccda5d3d336967131e02e073",
        "pretext_manifest.json": "be3620f199e8cbd3417ba5045b1e5081ea4b9c4a099cc091363800021a7ef4f2",
        "run_manifest.json": "fa86b84e6073818942ae47ca0b2c22f6aecaa7959aea3958d6d86cf8b3a908b3",
    },
    "pt4al-low-loss-first": {
        "plan_manifest.json": "12b7a7adb6ece537bcc6a25ca395e1b9976773463f5a8a71ca7974e64b85cce9",
        "pretext_manifest.json": "253b718cd8beea49de7103aef8f09632eccbae17957a4563c59f02b6d3b8f3da",
        "run_manifest.json": "d60fbc3cb34431a033350b89942c9f1a65127104b17f4f946ae9649d6dabf8c0",
    },
    "pt4al-pretext-only-high": {
        "plan_manifest.json": "881a71c3b8a6ad753ad89b2b173631fbc0d49baf26efc896441f15897795feab",
        "pretext_manifest.json": "10c0e43a30f54df2e501200222c210870507545fa066a8b03161ad2592521a10",
        "run_manifest.json": "f8c0a852dde05f04fca9d957c457308cbf5e026f7dd33f53f3286d3ec75dbe82",
    },
    "pt4al-pretext-only-low": {
        "plan_manifest.json": "7d92645808fa4f49016f3e1aa07ed74a8db3a962d3b0b393cabfd79fb68140e9",
        "pretext_manifest.json": "7bbf4f163269ff82c0cefcb1a76c2a9d1198edba9cef9930fe9d8f26511381a8",
        "run_manifest.json": "a54ba9de0997dabe7379dcd19e5b878de5d23bf0f67a8e4c6ce070c4523785b5",
    },
    "pt4al-sampling-only": {
        "plan_manifest.json": "3cd8fbd9c9c287a385361ef82779bc36fcd399a121dc99c9fd7dd5b2e69b5d17",
        "pretext_manifest.json": "d8016e41e9c3a56a4160f18434d0695f0ec5b293950acfac4f544ad183e93b67",
        "run_manifest.json": "fb87e6ca45e6e64b08c294dc2ef40fb3dd76a708e0d55e2d79bf5f08b0d2ef9f",
    },
    "random": {
        "plan_manifest.json": "4f065762efc3fe41daec8b63f57e8a278dc4acfe9c492b5c9d9f28cc415fe0ed",
        "pretext_manifest.json": "782aa117c5870a7e84791203ac8519bdacb9fbe9cdf39e258861b18611027226",
        "run_manifest.json": "718a4d4e7d9451dbfaf8a974c2f93403f95eaf571cf49dbf4ac0205bce3aed78",
    },
}

# (classes, noise) -> sha256 of x and y from gen_synthetic(60, classes, 12, noise, seed=5).
# Noise 0.7 is not a power of two, so regrouping a product with it changes bits.
GOLDEN_CORPUS: dict[tuple[int, float], tuple[str, str]] = {
    (3, 0.0): ("713164de5c1bd06d5c2e11442f5b1c0b5eb30e5dbfeff2f2fea2ea28704d4533",
              "b77f47b98f607c5b08dc0e48a2ed964cc4ab6d9ce232a5f2646014f9dad28915"),
    (3, 0.5): ("867041b87731abddb266383089c0ec3c6711b3c1b6dcde5c1c78e514613720e9",
              "b77f47b98f607c5b08dc0e48a2ed964cc4ab6d9ce232a5f2646014f9dad28915"),
    (3, 0.7): ("1cc2d6089e8842e7f700c26f282b5847e9dec565e2d98b250dd03da177433cd2",
              "b77f47b98f607c5b08dc0e48a2ed964cc4ab6d9ce232a5f2646014f9dad28915"),
    (3, 1.0): ("575b11e3fd7b0334be95d8946472ac0f51ca1662932961b6683bbda9bc9751e4",
              "b77f47b98f607c5b08dc0e48a2ed964cc4ab6d9ce232a5f2646014f9dad28915"),
    (3, 2.0): ("80505144d340909facfd5fa3313acf3e11b47f3dfd0ad087303fb00df8dfcb88",
              "b77f47b98f607c5b08dc0e48a2ed964cc4ab6d9ce232a5f2646014f9dad28915"),
    (10, 0.0): ("ab8be8745e47f2f72f99a0bc04251c2f9f1e8b19566cfd6566ac9389744658e0",
              "925583f47741e03804e535fcf2bd77f8d6959d963e91ee70a8d0134a55a47914"),
    (10, 0.5): ("78224c5807610bca0157835dd692762ddcaa04b125c08a9dabf930fe1ea70bea",
              "925583f47741e03804e535fcf2bd77f8d6959d963e91ee70a8d0134a55a47914"),
    (10, 0.7): ("9a7fb2536159beb44eec8883f575bd95a09ae05336f0561b9b2fe0ac6c85b66a",
              "925583f47741e03804e535fcf2bd77f8d6959d963e91ee70a8d0134a55a47914"),
    (10, 1.0): ("ff8cc66c8ae812a45a74be4218418003f1645de0412932d2dbbaee0d7f16467b",
              "925583f47741e03804e535fcf2bd77f8d6959d963e91ee70a8d0134a55a47914"),
    (10, 2.0): ("1fb4d21447177a2506c4b4794c16f86a0156b72bcd9b7fdd2895df610bbc738c",
              "925583f47741e03804e535fcf2bd77f8d6959d963e91ee70a8d0134a55a47914"),
}


# name -> (LearnerConfig fields, rows n) for learner.train on Gaussian data
# from default_rng(17). Batch 7 does not divide n = 50, so the last batch
# of every epoch is short.
TRAIN_CASES: dict[str, tuple[dict, int]] = {
    "dense-tanh-b16": (dict(input_shape=(8, 8, 1), n_classes=3, hidden=(16, 8), activation="tanh",
                            learning_rate=0.3, epochs=4, batch_size=16, seed=5), 80),
    "dense-relu-b7": (dict(input_shape=(10,), n_classes=4, hidden=(12,), activation="relu",
                           learning_rate=0.2, epochs=5, batch_size=7, seed=6), 50),
    "conv-tanh-b16": (dict(input_shape=(6, 6, 2), n_classes=3, hidden=(8,), conv=ConvSpec(filters=3, kernel=3),
                           learning_rate=0.3, epochs=3, batch_size=16, seed=7), 40),
}

# name -> sha256 of the trained weights, biases and per-epoch loss trace.
GOLDEN_TRAIN: dict[str, str] = {
    "conv-tanh-b16": "02e6e36ef2d13a20e6a2383cf4614eb12ac39650b76a03efea4a320a5888e0f9",
    "dense-relu-b7": "05ab90947bb10b28abf6e3967e3bca5877bbdd3dcd786e1fe291703e5584d258",
    "dense-tanh-b16": "7cd19ffc282eeace85f94365f98bc358a84d240c8cd51687068c9bd04909b631",
}


def write_case_config(tmp_path: Path, overrides: dict) -> Path:
    cfg = json.loads(json.dumps(BASE))
    for section, values in overrides.items():
        cfg[section].update(values)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def output_digests(out_dir: Path, names=OUTPUTS) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def write_idx_files(case_dir: Path) -> dict:
    """60 seeded 10x10 images with labels 0,1,2,0,...; returns the dataset section naming them."""
    pixels = np.random.default_rng(11).integers(0, 256, size=(60, 10, 10), dtype=np.uint8)
    labels = (np.arange(60) % 3).astype(np.uint8)
    images_path, labels_path = case_dir / IDX_DATASET["images"], case_dir / IDX_DATASET["labels"]
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, 60, 10, 10) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x00000801, 60) + labels.tobytes())
    return {**IDX_DATASET, "images": str(images_path), "labels": str(labels_path)}


def manifest_digests(out_dir: Path, tmp_path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes().replace(str(tmp_path).encode(), b"<tmp>")).hexdigest()
            for p in sorted(out_dir.glob("*_manifest.json"))}


def array_digest(a: np.ndarray) -> str:
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def test_every_strategy_and_ablation_is_pinned():
    pinned = {overrides.get("al", {}).get("strategy", BASE["al"]["strategy"]) for overrides in CASES.values()}
    assert set(loop.STRATEGY_TABLE) <= pinned
    assert set(loop.ABLATION_VARIANTS.values()) <= set(loop.STRATEGY_TABLE)
    assert {f"ablate-{variant}" for variant in loop.ABLATION_VARIANTS} <= set(COMMAND_CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden_digests(tmp_path, case):
    path = write_case_config(tmp_path, CASES[case])
    for command in ("pretext", "plan", "run"):
        assert main([command, str(path)]) == 0
    assert output_digests(tmp_path / "out") == GOLDEN_RUNS[case], KERNEL
    assert manifest_digests(tmp_path / "out", tmp_path) == GOLDEN_MANIFESTS[case], KERNEL


@pytest.mark.parametrize("case", sorted(COMMAND_CASES))
def test_command_outputs_match_golden_digests(tmp_path, case):
    overrides, commands, outputs = COMMAND_CASES[case]
    if overrides.get("dataset") is IDX_DATASET:
        overrides = {**overrides, "dataset": write_idx_files(tmp_path)}
    path = write_case_config(tmp_path, overrides)
    out = tmp_path / "out"
    for command, *flags in commands:
        assert main([command, str(path), *(f.format(out=out) for f in flags)]) == 0
    assert output_digests(out, outputs) == GOLDEN_COMMANDS[case], KERNEL
    assert manifest_digests(out, tmp_path) == GOLDEN_MANIFESTS[case], KERNEL


def train_digest(state: learner.LearnerState, trace: list[float]) -> str:
    h = hashlib.sha256()
    for a in (*state.weights, *state.biases, np.asarray(trace, dtype=np.float64)):
        h.update(array_digest(a).encode())
    return h.hexdigest()


def train_case(name: str):
    fields, n = TRAIN_CASES[name]
    cfg = LearnerConfig(**fields)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((n, *cfg.input_shape))
    y = rng.integers(0, cfg.n_classes, size=n)
    return learner.train(learner.init_learner(cfg), x, y)


@pytest.mark.parametrize("name", sorted(TRAIN_CASES))
def test_train_matches_golden_digests(name):
    assert train_digest(*train_case(name)) == GOLDEN_TRAIN[name], KERNEL


@pytest.mark.parametrize("classes, noise", sorted(GOLDEN_CORPUS))
def test_synthetic_corpus_matches_golden_digests(classes, noise):
    pool = gen_synthetic(60, classes, 12, noise, seed=5)
    assert (array_digest(pool.x), array_digest(pool.y)) == GOLDEN_CORPUS[(classes, noise)], KERNEL


def test_outputs_independent_of_blas_thread_count(tmp_path):
    digests = []
    for threads in ("1", "2"):
        case_dir = tmp_path / f"threads{threads}"
        case_dir.mkdir()
        path = write_case_config(case_dir, {})
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        for command in ("pretext", "plan", "run"):
            subprocess.run([sys.executable, "-m", "pt4al.cli", command, str(path)],
                           env=env, check=True, capture_output=True, timeout=120)
        digests.append(output_digests(case_dir / "out"))
    assert digests[0] == digests[1], KERNEL

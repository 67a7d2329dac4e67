"""Byte-level goldens for every artifact the CLI writes.

Each artifact of a small seeded flow is hashed and compared with the
sha256 recorded here. Artifacts are deterministic under seed, so any
change to these bytes is a change in behaviour: such a change must be
deliberate and come with a new tool version. Commands run inside one
scratch directory with relative paths, because evaluate reports echo
their input path.
"""

import hashlib
import os

import pytest

from pathsplit import __version__
from pathsplit.cli import main

GOLDEN_VERSION = "0.2.0"

# artifact -> CLI arguments that write it; run in this order
FLOW = {
    "data.ndjson": ["generate", "--classes", "6", "--per-class", "8",
                    "--unmonitored", "30", "--seed", "5"],
    "data.csv": ["generate", "--classes", "6", "--per-class", "8",
                 "--unmonitored", "30", "--seed", "5"],
    "split-wr-packets.ndjson": ["split", "-i", "data.ndjson", "--strategy", "wr",
                                "--paths", "3", "--batch-packets", "50",
                                "--seed", "1"],
    "split-wr-time.ndjson": ["split", "-i", "data.ndjson", "--strategy", "wr",
                             "--paths", "3", "--boundary", "time",
                             "--window-ms", "100", "--seed", "1"],
    "split-context.ndjson": ["split", "-i", "data.ndjson", "--strategy", "context",
                             "--handshake", "4", "--paths", "2"],
    "split-csv.csv": ["split", "-i", "data.csv", "--strategy", "ur", "--paths", "2",
                      "--boundary", "time", "--window-ms", "40", "--seed", "4"],
    "eval-none.json": ["evaluate", "-i", "data.ndjson", "--defense", "none",
                       "--seed", "2"],
    "eval-wr.json": ["evaluate", "-i", "data.ndjson", "--defense", "wr:3:50",
                     "--seed", "2"],
    "overhead-quic.csv": ["overhead", "--protocol", "quic", "--periods", "10,100",
                          "--reps", "2", "--total-mb", "2", "--seed", "3"],
    # lossy runs pin the loss draws (geometric gaps in one uniform stream),
    # WireGuard's per-path state and QUIC's validation cache
    "overhead-wireguard-lossy.csv": ["overhead", "--protocol", "wireguard",
                                     "--loss", "0.01", "--periods", "10,100",
                                     "--reps", "2", "--total-mb", "2",
                                     "--seed", "3"],
    "overhead-quic-cached-lossy.csv": ["overhead", "--protocol", "quic",
                                       "--validate-cache", "--paths", "3",
                                       "--loss", "0.01", "--periods", "10,50,100",
                                       "--reps", "2", "--total-mb", "2",
                                       "--seed", "3"],
    # the high-loss golden: at 0.6 loss most gaps are below one packet;
    # its name is that of 0.1.0, which drew there by Generator.binomial
    "overhead-quic-lossy-binomial.csv": ["overhead", "--protocol", "quic",
                                         "--loss", "0.6", "--periods", "10,100",
                                         "--reps", "2", "--total-mb", "1",
                                         "--seed", "3"],
}

GOLDEN_SHA256 = {
    "data.ndjson":
        "83505658aaba8405ac49c20f0512bbca897bb10829c0de8ed4915017f5d9af5e",
    "data.csv":
        "cd81cf65d27776e1524126b1e660dc4265e958a0e55c4a98d41f6bb2599731a8",
    "split-wr-packets.ndjson":
        "8c29a3a0ed0215cc99b9dabf18012890a29c7f1e7f9d2808cc98b03e506fb9a8",
    "split-wr-time.ndjson":
        "047f579142b75fbefecd623ae1f688bf7ef4a23c6c713bdba17b0d94fb1ed64c",
    "split-context.ndjson":
        "acb8af8239df6dd9e9e1b408910186c86ba9ac28b7265db49fb32986d14f55f5",
    "split-csv.csv":
        "6188086da9ac60287d79a8f1800ea272f934d5729e0c668ddb93d151797c2944",
    "eval-none.json":
        "8a12d5b6e371d3612e256ed140923d1f7e047036cbd818230c39711b0def7ccc",
    "eval-wr.json":
        "17930a21ed8ad23d84ff0fee19580bfba2b271ca4fa19c6924ace138c0c153a4",
    "overhead-quic.csv":
        "1d1d2ea6a763f45acb82d3a0b206b835df1e2e0d0faa08a77fc3888085c87f05",
    "overhead-wireguard-lossy.csv":
        "359608c50f4c30c500c66d99ade8c0e44b4e6f319eee68b1b927bdb382ecd794",
    "overhead-quic-cached-lossy.csv":
        "4da368beb9a396c235f16f413e4a332c1a60f25ce09787096410d5f6625c762a",
    "overhead-quic-lossy-binomial.csv":
        "9068d13289c3ef57e9d609e763019629ababaf6df314ce5fc15c41eb42bb095f",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for artifact, argv in FLOW.items():
            assert main(argv + ["-o", artifact]) == 0, artifact
        return {
            artifact: hashlib.sha256((work / artifact).read_bytes()).hexdigest()
            for artifact in FLOW
        }
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("artifact", list(FLOW))
def test_artifact_bytes_match_golden(digests, artifact):
    assert __version__ == GOLDEN_VERSION, (
        "artifact bytes are pinned for 0.2.0; record new goldens with the new version"
    )
    assert digests[artifact] == GOLDEN_SHA256[artifact]

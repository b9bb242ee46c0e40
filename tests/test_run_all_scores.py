"""run-all scores its layout as evaluate would, and writes what it always wrote.

run-all scores from its n-gram tables where they give the replay's report
exactly and replays the corpus elsewhere; evaluate always replays. Under
each flag set below, run-all takes the route named for it, and evaluating
run-all's own layout over the same corpus must reproduce run-all's
report. The golden digests pin the bytes of run-all over the bundled
sample under every flag set: the default and resetting runs as they were
before the table route existed, the spanning one as it was before the
counter keyed its windows by packed code points, the two replayed
runs as they were while run-all still held the whole corpus as one
stream, the replay with both unplaced letters and resets as it was
while each layout's replay merged per-piece scores, and the coverage 500
run, whose partition sums involvement per scored letter (8 scored, 38
table letters, 899 digraph rows), as it was while every partition took
the pass over every row. Under three flag sets, run-all writes the same
bytes whatever the interpreter's hash seed.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from layoutforge import cli
from layoutforge.cli import main
from layoutforge.evaluator import evaluate

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = [str(p) for p in sorted((ROOT / "data" / "bn_sample").glob("*.txt"))]

# Flag sets, and whether run-all replays the corpus under them: a spanning
# count has no run-only digraphs to score resets from, and coverage 50 or
# 500 leaves letters off the layout.
FLAG_SETS = {
    "defaults": [],
    "reset": ["--reset-on-boundary"],
    "span": ["--span-boundaries"],
    "span and reset": ["--span-boundaries", "--reset-on-boundary"],
    "coverage 50": ["--coverage", "50"],
    "coverage 50 and reset": ["--coverage", "50", "--reset-on-boundary"],
    "coverage 500": ["--coverage", "500"],
}
REPLAYED = {"span and reset", "coverage 50", "coverage 50 and reset", "coverage 500"}
SCORING_FLAGS = {"--reset-on-boundary"}

GOLDEN = {
    "defaults": {
        "stdout": "e81c001af0083b9b1598190130f9f3fa1f046a437e9d633b2acae3ef11bcc028",
        "comparison.txt": "e81c001af0083b9b1598190130f9f3fa1f046a437e9d633b2acae3ef11bcc028",
        "digraphs.tsv": "68c7899a904a2a8530445f62c531d5e6bcf6e2a9e9289efd09deeda5593152c6",
        "layout.json": "07ff00cca14d6a8410ab069ab3dcca99a249d1b38c78f1a24f0649c1c0b6ec3f",
        "monograms.tsv": "a7e75a0e7d22ec289544352ff6d5e8b3b8c4bba01258fbd46633b28a5321b253",
        "partition.json": "23b0b5dca8558dcbac8e8a5bd7946dac87ecbfc314290d97d941017e58d32eb0",
        "report-optimized.json":
            "1fb5bebdd75944eb22616ac5f0592e23481ab7cd338bc90ef6f5c310e67dc8c5",
        "report-optimized.tsv":
            "bb68bb91d76193bcb268c47efc02dbc86acab02cfeebb2e60f2fded0cb41a153",
        "summary.json": "01bb134a7aaf7b71d01345da0f57467ba19e6cfb7567fa44d5b1936d444e06c6",
        "trigrams.tsv": "117c75ba9212993dd83fcdbd5d6aaea416e76668c90b215f99e1f5b30a0dba9d",
    },
    "reset": {
        "stdout": "4c6a583a134241c8863dfc1c2127bc7339bfc58378ee149fd4b2a0835f7a8c2b",
        "comparison.txt": "4c6a583a134241c8863dfc1c2127bc7339bfc58378ee149fd4b2a0835f7a8c2b",
        "digraphs.tsv": "af3487f5bb03223a056c411135c85bb8ad8c525d20c6e9752f9a0230d3717550",
        "layout.json": "07ff00cca14d6a8410ab069ab3dcca99a249d1b38c78f1a24f0649c1c0b6ec3f",
        "monograms.tsv": "656067f919f2af60cb95921f3364264202401b111b2a6deed0ec7818b48bcb91",
        "partition.json": "b8d12981912a89960851e00d9279de9412e216d6693de289cec674b7deadceb8",
        "report-optimized.json":
            "533aa1204b9a9260aa427e51757a57ecc5ba3cb522b2c1dd873ec096e8719c41",
        "report-optimized.tsv":
            "d117496cea9705cbbf01e9e7faeb1ba0516c041c4fade567318a2518e73b5bd8",
        "summary.json": "9aba09b5e621304ca70e8a3f3a00436be91df3e8dd5efd3e7b6ba387489cbcd0",
        "trigrams.tsv": "68ccc4ef9e40c93f98dd7806efc633473f6a73c094833cc0d5becd24a61bcc37",
    },
    "span": {
        "stdout": "688aad60edc19831f9284344bc5b6fc06b9d64608863c66e1d7b0aba4d066e97",
        "comparison.txt": "688aad60edc19831f9284344bc5b6fc06b9d64608863c66e1d7b0aba4d066e97",
        "digraphs.tsv": "97b158988fdb9b96de1cc380f63ea629046a072b75a3542df8231e84540a0fda",
        "layout.json": "7baf3f0f9b5c079b97904fdb0e904fccd955f6447cd7c457869ceb06189ab43a",
        "monograms.tsv": "8391488f49c9ce780bac4024338b2f558aed5b32a3faf43943722bd5ec935f9b",
        "partition.json": "662844a1ecefcd54be23bd06a6cad5f1fce861a433ae6bed5e70bb7fa26f9693",
        "report-optimized.json":
            "065f7d2f1b85866fc41b6948eb3e4b0e1e35aa49431fccf6cf0080efc50e088f",
        "report-optimized.tsv":
            "719f4d5b9bdad5addbbd3af03b2751b7dc1b3931a5c74c954ad855364188aeab",
        "summary.json": "d07aba89d9692765bc90a7facb0eb9e62602683d2e1e0771687145237bfb66db",
        "trigrams.tsv": "992dd9d77a532b562e0dc8b9f06b77f9a70478351a91a40e2b7d4bea065e35ee",
    },
    "span and reset": {
        "stdout": "c591efe892c8e1a5dac346406a250135ec37dacf75a3457f12cd5edbebd66056",
        "comparison.txt": "c591efe892c8e1a5dac346406a250135ec37dacf75a3457f12cd5edbebd66056",
        "digraphs.tsv": "b15a7e210d54a07467d60fcb6cb89c7d622dac551b7a85dc79f53b511bbd8b92",
        "layout.json": "7baf3f0f9b5c079b97904fdb0e904fccd955f6447cd7c457869ceb06189ab43a",
        "monograms.tsv": "d4c4392133d69fff83c2e94250cb201cdcb8fbde2266f3a4d9779f4e6be4d41b",
        "partition.json": "9b4d243b8a6f4bd09f13debb74843a09d3b984a793bacaff8421bc54fab45a33",
        "report-optimized.json":
            "71ddea5c4f95b01e36d0faa2b47c7ebe82e6b35c63c979dd86c2dba271ca7f96",
        "report-optimized.tsv":
            "0ebf46ccff7a56bb9571cb9b79524feeddda7a7fbf86a460c4d0016a4b54bf56",
        "summary.json": "02715ca3063afec806e095c895dd52ffa0daeab1ad4554addbe3964e24f069b0",
        "trigrams.tsv": "9f5cd2c8bafb1629a9f81d2b75305b13088304736cae252f66cd02915c0b7bd2",
    },
    "coverage 50": {
        "stdout": "7265b8d5b2fb1bcbf28d949217d5d9882e169319907603d402c3e382394b9480",
        "comparison.txt": "7265b8d5b2fb1bcbf28d949217d5d9882e169319907603d402c3e382394b9480",
        "digraphs.tsv": "d5c8da73bc48fd595925bcdaad62030bfd3ba781261512c5061b56f6f17cc04d",
        "layout.json": "fe236470c7d0db1ddcba976a46f3be0c1b3be12ad244ccd938cf5c3148db1983",
        "monograms.tsv": "f719f3b2061633445441214411fe5b1bdebbdc01e0e30c4a2c1ed003069ce791",
        "partition.json": "69204f5a410149884dc998bf52d636d51b02f06780fa06dfd9f0e1a322b1037c",
        "report-optimized.json":
            "60fec8fd4686ca09e387a864a0de5d48def34472bf22211ad35f8a647c437c4d",
        "report-optimized.tsv":
            "68720814551619ffbce3eec44327029682081a49749897b4977a4994e616087b",
        "summary.json": "d9b671835c7c2c6d993337988c69b5ba5b359a6ceac9bd658a317819cf93f809",
        "trigrams.tsv": "650c97052f054e2908f11d688dbd9860b02fc6baaa73227fa6f356217eff77fd",
    },
    "coverage 50 and reset": {
        "stdout": "8cf1c14cffdba047c1c77942f830040d4eceb213b20e5b07c653cef676715a93",
        "comparison.txt": "8cf1c14cffdba047c1c77942f830040d4eceb213b20e5b07c653cef676715a93",
        "digraphs.tsv": "c90cd936aeabc2858f7a1e24d00844222ae722aca06d70cc9f3286fba868390b",
        "layout.json": "fe236470c7d0db1ddcba976a46f3be0c1b3be12ad244ccd938cf5c3148db1983",
        "monograms.tsv": "314d667d32cae9d624f98651d53ab29710c62af2d88b6668ef47a052bdb5ee2a",
        "partition.json": "2a0c27751e74256acbc134784eed8ca741014283840ed190ddf703fe03e004b9",
        "report-optimized.json":
            "ca816f2e55405a5fd5f0d0e44811e438111fe60591c7795ab8d00bf098521e72",
        "report-optimized.tsv":
            "5262e4281fdbf3c505557cc40b04e73bcfd030da28808dcd5240a84b77fa5557",
        "summary.json": "3b0539ad55cafdc7bff8070e95c8bd3b3bdf62c61cf2b6c85db34d53049e1a54",
        "trigrams.tsv": "3ef536d582ca8f394dd723acaab617afe9a8b1fda0a5f03f3334ab4e839d34d4",
    },
    "coverage 500": {
        "stdout": "c0ad00abdf1d4eac4f17b35a0b0c33e999e93b7055e1e997b2610284271aca74",
        "comparison.txt": "c0ad00abdf1d4eac4f17b35a0b0c33e999e93b7055e1e997b2610284271aca74",
        "digraphs.tsv": "5ccdb4fa5b0373820398ca4328dd8ff4a01fba0fa3c9d397d023cfb8a7f086f0",
        "layout.json": "ca7f9ac28ac3ba3ac5c10f23e206231f179ad398b55b400d409ba0f922e61c16",
        "monograms.tsv": "cb450039915df7561dc792ed6ae550f92aa647607a6278bf842f4bad1c7b22e6",
        "partition.json": "89e508b063e964be40c0c9c8ff83e53236b382378edbf4efa2e33e6a42d6aad2",
        "report-optimized.json":
            "7842e0b1bc8b973fc8b303bcf2e2c7282f2b98923ff005e0114cf5ea50e6a2f8",
        "report-optimized.tsv":
            "5f48f051bc9dae61ba570bef3054eec4b1d31c7ada77dbc1d9f41837b637a595",
        "summary.json": "e669cc0ce22cb60415098151e35e176405aab5ff9fe8be9e47717e22228e113f",
        "trigrams.tsv": "28eb521444c89d78b7a049cbb496b9db4eeecf4811aab899f08b1d4a10c00e0b",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", FLAG_SETS)
def test_run_all_report_is_what_evaluate_gives(tmp_path, capsys, monkeypatch, key):
    flags = FLAG_SETS[key]
    run, scored = tmp_path / "run", tmp_path / "evaluate"
    replays = []

    def replay(*args, **kwargs):
        replays.append(args)
        return evaluate(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "evaluate", replay)
        assert main(["run-all", *SAMPLE, "--out", str(run), *flags]) == 0
    assert len(replays) == (key in REPLAYED)
    assert main(["evaluate", str(run / "layout.json"), "--corpus", *SAMPLE,
                 "--out", str(scored), *[f for f in flags if f in SCORING_FLAGS]]) == 0
    capsys.readouterr()
    assert ((run / "report-optimized.tsv").read_bytes()
            == (scored / "report-optimized.tsv").read_bytes())
    reports = [json.loads((out / "report-optimized.json").read_text(encoding="utf-8"))
               for out in (run, scored)]
    for report in reports:
        del report["config"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("key", GOLDEN)
def test_run_all_writes_the_golden_bytes(tmp_path, capsys, key):
    out = tmp_path / "out"
    assert main(["run-all", *SAMPLE, "--out", str(out), *FLAG_SETS[key]]) == 0
    digests = {"stdout": sha256(capsys.readouterr().out.encode("utf-8"))}
    digests.update((path.name, sha256(path.read_bytes())) for path in out.iterdir())
    assert digests == GOLDEN[key]


@pytest.mark.parametrize("flags", [[], ["--coverage", "50", "--balance-tiebreak"],
                                   ["--span-boundaries", "--reset-on-boundary"]],
                         ids=["defaults", "coverage 50 and tiebreak", "span and reset"])
def test_run_all_writes_the_same_bytes_under_any_hash_seed(tmp_path, flags):
    """String hashing, and so set and dict order among grams, varies with PYTHONHASHSEED."""
    written = {}
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        out = tmp_path / seed
        done = subprocess.run([sys.executable, "-m", "layoutforge", "run-all", *SAMPLE,
                               "--out", str(out), *flags],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        written[seed] = {"stdout": done.stdout,
                         **{path.name: path.read_bytes() for path in out.iterdir()}}
    assert written["0"] == written["1"] == written["12345"]

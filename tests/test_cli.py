"""End-to-end tests for the command line interface."""

from __future__ import annotations

import csv
import json
import os
import threading
import tracemalloc
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from cfakit import DataAccessError, FusionBatch, LabelSet, ValidationError
from cfakit.cli import main
from cfakit.combine import grid_arrays
from cfakit.fileio import atomic_write_text, load_score_cube, write_diversity, write_score_file
from cfakit.fused import FUSED_HEADER as FUSED_HEADER_NAMES
from cfakit.fused import _fused_cache, load_fused_predictions, write_fused_file

LABELS = ["SDG4", "SDG6", "SDG13"]

LEXICON = {
    "SDG4": ["education", "school", "learning"],
    "SDG6": ["water", "sanitation", "clean water"],
    "SDG13": ["climate", "emissions", "warming"],
}

CORPUS = [
    ("d01", "Clean water and sanitation for every village.", "SDG6"),
    ("d02", "Water infrastructure needs investment, water first.", "SDG6"),
    ("d03", "Education opens doors; every school counts.", "SDG4"),
    ("d04", "Learning outcomes improve with trained teachers.", "SDG4"),
    ("d05", "Climate change accelerates; emissions keep rising.", "SDG13"),
    ("d06", "Warming oceans disturb climate patterns.", "SDG13"),
    ("d07", "Schools teach climate literacy and learning.", "SDG4"),
    ("d08", "Sanitation systems fail under warming stress.", "SDG6"),
]

TRAIN = [
    ("t1", "clean water sanitation wells pipes", "SDG6"),
    ("t2", "drinking water hygiene sanitation", "SDG6"),
    ("t3", "education school learning teachers", "SDG4"),
    ("t4", "school curriculum learning literacy", "SDG4"),
    ("t5", "climate emissions warming carbon", "SDG13"),
    ("t6", "climate adaptation warming seas", "SDG13"),
]


def _write_jsonl(path: Path, docs) -> None:
    lines = [
        json.dumps({"doc_id": d, "text": t, "label": lab})
        for d, t, lab in docs
    ]
    path.write_text("".join(line + "\n" for line in lines))


@pytest.fixture()
def workspace(tmp_path):
    _write_jsonl(tmp_path / "corpus.jsonl", CORPUS)
    _write_jsonl(tmp_path / "train.jsonl", TRAIN)
    (tmp_path / "lexicon.json").write_text(json.dumps(LEXICON))
    (tmp_path / "expert.csv").write_text(
        "doc_id,label\n" + "".join(f"{d},{lab}\n" for d, _, lab in CORPUS)
    )
    config = {
        "labels": LABELS,
        "systems": [
            {"id": "kw", "path": "out/scores_keyword.csv"},
            {"id": "tf", "path": "out/scores_tfidf.csv"},
        ],
        "expert_labels": "expert.csv",
        "out_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def _run(*argv):
    return main([str(a) for a in argv])


def _config_with(ws, name, **fields):
    """ws/name: the workspace config with fields set over its own."""
    path = ws / name
    path.write_text(json.dumps({**json.loads((ws / "config.json").read_text()), **fields}))
    return path


def _score_both(ws):
    config = ws / "config.json"
    assert _run(
        "score", "--config", config, "--scorer", "keyword",
        "--corpus", ws / "corpus.jsonl", "--lexicon", ws / "lexicon.json",
    ) == 0
    assert _run(
        "score", "--config", config, "--scorer", "tfidf",
        "--corpus", ws / "corpus.jsonl", "--train", ws / "train.jsonl",
    ) == 0


def test_full_pipeline(workspace, capsys):
    ws = workspace
    config = ws / "config.json"
    _score_both(ws)
    assert (ws / "out" / "scores_keyword.csv").exists()
    assert (ws / "out" / "scores_tfidf.csv").exists()

    assert _run("fuse", "--config", config) == 0
    fused_lines = (ws / "out" / "fused.csv").read_text().splitlines()
    # 1 subset of two systems x 4 strategies x 8 documents, plus header
    assert len(fused_lines) == 1 + 4 * 8
    combos = {line.split(",")[0] for line in fused_lines[1:]}
    assert combos == {"kw+tf:asc", "kw+tf:arc", "kw+tf:wsc-ds", "kw+tf:wrc-ds"}

    assert _run("evaluate", "--config", config) == 0
    out = ws / "out"
    for name in (
        "report.json", "overall_precision.csv", "per_label_precision.csv",
        "grid_stats.csv", "disagreements.csv", "strategy_precision.csv",
    ):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert set(report["individual"]) == {"kw", "tf"}
    assert len(report["combined"]) == 4
    assert report["best_combined"]["model"] in report["combined"]
    assert report["grid_statistics"]["models_ge_best_individual"]["denominator"] == 4
    stdout = capsys.readouterr().out
    assert "best combined model" in stdout


def test_score_files_round_trip_at_full_precision(workspace):
    ws = workspace
    _score_both(ws)
    label_set = LabelSet(tuple(LABELS))
    doc_ids, raw = load_score_cube(
        [(name, ws / "out" / f"scores_{name}.csv") for name in ("keyword", "tfidf")], label_set
    )
    assert doc_ids == sorted(d for d, _, _ in CORPUS)
    # keyword scores are reproducible from the corpus and lexicon
    from cfakit import Document, KeywordLexicon

    lexicon = KeywordLexicon(LEXICON, label_set)
    for doc_id, text, _ in CORPUS:
        expected = lexicon.score(Document(doc_id, text))
        got = raw[doc_ids.index(doc_id), 0].tolist()
        assert got == [expected[label] for label in LABELS]  # bit-exact


def test_reruns_are_byte_identical(workspace):
    ws = workspace
    config = ws / "config.json"
    _score_both(ws)
    assert _run("fuse", "--config", config) == 0
    first_fused = (ws / "out" / "fused.csv").read_bytes()
    first_cache = (ws / "out" / "fused.csv.cache").read_bytes()
    assert _run("evaluate", "--config", config) == 0
    first_report = (ws / "out" / "report.json").read_bytes()
    first_tables = {
        name: (ws / "out" / name).read_bytes()
        for name in ("overall_precision.csv", "grid_stats.csv", "strategy_precision.csv")
    }

    assert _run("fuse", "--config", config) == 0
    assert (ws / "out" / "fused.csv").read_bytes() == first_fused
    assert (ws / "out" / "fused.csv.cache").read_bytes() == first_cache
    assert _run("evaluate", "--config", config) == 0
    assert (ws / "out" / "report.json").read_bytes() == first_report
    for name, body in first_tables.items():
        assert (ws / "out" / name).read_bytes() == body


def _fuse_and_evaluate(ws):
    """fuse, then evaluate: the bytes of the cache and of the report."""
    config = ws / "config.json"
    assert _run("fuse", "--config", config) == 0
    assert _run("evaluate", "--config", config) == 0
    return (ws / "out" / "fused.csv.cache").read_bytes(), (ws / "out" / "report.json").read_bytes()


def _batch_of(labels, doc_ids) -> FusionBatch:
    """A one-system batch of these labels and documents, which is all a
    fused grid file is written and read against."""
    return FusionBatch(doc_ids, LabelSet(tuple(labels)), ("s",),
                       np.zeros((len(doc_ids), 1, len(labels))))


def _cache_hit(ws) -> bool:
    doc_ids, _ = load_score_cube(
        [(s, ws / "out" / f"scores_{n}.csv") for s, n in (("kw", "keyword"), ("tf", "tfidf"))],
        LabelSet(tuple(LABELS)))
    return _fused_cache(ws / "out" / "fused.csv", tuple(LABELS), doc_ids) is not None


def test_an_edited_fused_file_is_read_from_its_rows_not_its_cache(workspace, capsys):
    ws = workspace
    _score_both(ws)
    _, unedited = _fuse_and_evaluate(ws)
    assert _cache_hit(ws)
    # one row moves to another label of the same length: the file keeps its
    # size, and only its CRC-32 shows that the cache is stale
    experts = dict(line.split(",") for line in (ws / "expert.csv").read_text().splitlines()[1:])
    fused = ws / "out" / "fused.csv"
    lines = fused.read_bytes().decode().splitlines(keepends=True)
    swap = {"SDG4": "SDG6", "SDG6": "SDG4"}
    for i, line in enumerate(lines[1:], start=1):
        combo, doc, top1, tie, tied_top, ranking = line.split(",")
        if top1 in swap and tie == "false" and experts[doc] in swap:
            # the prediction flips from right to wrong or back
            ranking = "|".join(swap.get(label, label) for label in ranking.split("|"))
            lines[i] = ",".join((combo, doc, swap[top1], tie, swap[tied_top], ranking))
            break
    else:
        pytest.fail("no row to edit")
    fused.write_bytes("".join(lines).encode())
    assert not _cache_hit(ws)
    assert _run("evaluate", "--config", ws / "config.json") == 0
    edited = (ws / "out" / "report.json").read_bytes()
    assert edited != unedited
    (ws / "out" / "fused.csv.cache").unlink()
    assert _run("evaluate", "--config", ws / "config.json") == 0
    assert (ws / "out" / "report.json").read_bytes() == edited
    assert capsys.readouterr().err == ""


def _flip_first_head(data: bytes) -> bytes:
    # the low bit of the first row's head: most likely another head in range
    at = data.index(b"\n") + 1
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _swap_first_heads(data: bytes) -> bytes:
    # valid JSON, every index in range, each head now another label's
    swapped = data.replace(b"[[0, [0]], [1, [1]]", b"[[1, [1]], [0, [0]]", 1)
    assert swapped != data
    return swapped


def _forged(version=1, head=0, first_head=None, first_combo=None):
    """A cache rewritten with its check made good: another version, the
    first row's head set to head, or the first of the heads or of the combo
    ids set to first_head or first_combo."""
    def forge(data: bytes) -> bytes:
        line, index = data.split(b"\n", 1)
        header = json.loads(line)
        del header["check"]
        header["version"] = version
        if first_head is not None:
            header["heads"][0] = first_head
        if first_combo is not None:
            header["combo_ids"][0] = first_combo
        index = head.to_bytes(4, "little", signed=True) + index[4:]
        text = json.dumps(header, sort_keys=True).encode()
        header["check"] = zlib.crc32(index, zlib.crc32(text))
        return json.dumps(header, sort_keys=True).encode() + b"\n" + index
    return forge


@pytest.mark.parametrize("damage", [
    lambda data: data[:-3],  # truncated
    lambda data: data[: data.index(b"\n") + 1],  # the header alone
    lambda data: bytes(range(256)) * 8,  # garbage
    lambda data: b"",
    _flip_first_head,
    _swap_first_heads,
    _forged(version=2),
    _forged(head=-1),
    _forged(head=10_000),
    _forged(first_head=[99, [99]]),
    _forged(first_head=[-1, [-1]]),
    _forged(first_head=[0, [1]]),
    _forged(first_head=[0, [0, 0]]),
    _forged(first_head=[1.0, [0, 1]]),
    _forged(first_head=[0, [0, 1.0]]),
    _forged(first_combo="kw+tf:asc"),  # the second combo's id
    _forged(first_combo=5),
], ids=["truncated", "header-alone", "garbage", "empty", "flipped-head", "swapped-heads",
        "version-2", "head-below-range", "head-above-range", "label-above-range",
        "label-below-range", "top1-outside-its-group", "group-repeats-a-label",
        "top1-not-an-int", "label-not-an-int", "combo-repeated", "combo-not-a-string"])
def test_a_damaged_fused_cache_is_passed_over_in_silence(workspace, capsys, damage):
    ws = workspace
    _score_both(ws)
    cache_bytes, report = _fuse_and_evaluate(ws)
    capsys.readouterr()
    cache = ws / "out" / "fused.csv.cache"
    cache.write_bytes(damage(cache_bytes))
    assert not _cache_hit(ws)
    (ws / "out" / "report.json").unlink()
    assert _run("evaluate", "--config", ws / "config.json") == 0
    assert (ws / "out" / "report.json").read_bytes() == report
    assert capsys.readouterr().err == ""


def test_documents_changed_after_fuse_give_the_fused_files_error(workspace, capsys):
    ws = workspace
    _score_both(ws)
    _fuse_and_evaluate(ws)
    capsys.readouterr()
    # d08 becomes d00 in the score files and the expert labels, not in
    # fused.csv: as many documents, in another order
    for name in ("out/scores_keyword.csv", "out/scores_tfidf.csv", "expert.csv"):
        path = ws / name
        path.write_text(path.read_text().replace("\nd08,", "\nd00,"))
    errors = []
    for _ in range(2):
        assert _run("evaluate", "--config", ws / "config.json") == 1
        errors.append(capsys.readouterr().err)
        (ws / "out" / "fused.csv.cache").unlink(missing_ok=True)
    # the first row of a document outside the run, d08 of kw+tf:arc, after
    # d01 to d07
    assert errors[0] == errors[1] == (
        f"error: {ws / 'out' / 'fused.csv'}:9: document 'd08' is outside the run's documents\n"
    )


def test_fuse_with_performance_weights(workspace):
    ws = workspace
    _score_both(ws)
    assert _run("fuse", "--config", _config_with(ws, "perf.json", weights="perf")) == 0
    lines = (ws / "out" / "fused.csv").read_text().splitlines()
    combos = {line.split(",")[0] for line in lines[1:]}
    assert combos == {"kw+tf:asc", "kw+tf:arc", "kw+tf:wsc-perf", "kw+tf:wrc-perf"}
    # performance weights are computed from the expert labels, which
    # diversity-strength weights never read
    config = json.loads((ws / "config.json").read_text())
    del config["expert_labels"]
    for weights, code in (("ds", 0), ("perf", 1)):
        (ws / "no-experts.json").write_text(json.dumps({**config, "weights": weights}))
        assert _run("fuse", "--config", ws / "no-experts.json") == code


def test_performance_weights_are_the_reported_precisions(tmp_path):
    # fuse weights each system by its overall precision under the run's
    # tie mode: correct of total, as evaluate reports it.  Quarter-step
    # scores tie at the top often enough that the two modes weigh the
    # three systems differently.
    rng = np.random.default_rng(11)
    label_set = LabelSet(("A", "B", "C", "D"))
    doc_ids = [f"d{i:02d}" for i in range(40)]
    expert = rng.integers(0, 4, size=40)
    (tmp_path / "e.csv").write_text("doc_id,label\n" + "".join(
        f"{d},{label_set.labels[e]}\n" for d, e in zip(doc_ids, expert)))
    for system, boost in (("s", 0.5), ("t", 0.25), ("u", 0.0)):
        raw = rng.integers(0, 4, size=(40, 4)) / 4
        raw[np.arange(40), expert] += boost * rng.integers(0, 2, size=40)
        write_score_file(tmp_path / f"{system}.csv", {
            d: dict(zip(label_set.labels, row)) for d, row in zip(doc_ids, raw.tolist())
        }, label_set)
    doc_ids, raw = load_score_cube(
        [(s, tmp_path / f"{s}.csv") for s in ("s", "t", "u")], label_set)
    batch = FusionBatch(doc_ids, label_set, ["s", "t", "u"], raw)
    fused = {}
    for tie_mode in ("strict", "lenient"):
        out = tmp_path / tie_mode
        config = tmp_path / f"{tie_mode}.json"
        config.write_text(json.dumps({
            "labels": list(label_set.labels),
            "systems": [{"id": s, "path": f"{s}.csv"} for s in ("s", "t", "u")],
            "expert_labels": "e.csv", "weights": "perf", "tie_mode": tie_mode,
            "out_dir": tie_mode,
        }))
        assert _run("fuse", "--config", config) == 0
        assert _run("evaluate", "--config", config) == 0
        with open(out / "overall_precision.csv", newline="") as handle:
            performance = {row["model"]: int(row["correct"]) / int(row["total"])
                           for row in csv.DictReader(handle) if row["kind"] == "individual"}
        assert sorted(performance) == ["s", "t", "u"]
        want = tmp_path / "want" / tie_mode / "fused.csv"
        write_fused_file(want, batch, (
            (combo_id, order, tied)
            for combo_id, (_, order, tied, _) in grid_arrays(batch, performance)
        ))
        fused[tie_mode] = (out / "fused.csv").read_bytes()
        assert fused[tie_mode] == want.read_bytes()
    assert fused["strict"] != fused["lenient"]


def test_diversity_outputs(workspace):
    ws = workspace
    _score_both(ws)
    assert _run("diversity", "--config", ws / "config.json", "--doc", "d01") == 0
    out = ws / "out"
    for name in (
        "diversity_pairs.csv", "diversity_strength.csv",
        "diversity_pairs_mean.csv", "diversity_strength_mean.csv",
        "rsc_d01.csv",
    ):
        assert (out / name).exists(), name
    rsc = (out / "rsc_d01.csv").read_text().splitlines()
    # header plus one row per rank position per system
    assert len(rsc) == 1 + 2 * len(LABELS)
    pairs = (out / "diversity_pairs_mean.csv").read_text().splitlines()
    assert pairs[0] == "system_a,system_b,mean_cd"
    assert len(pairs) == 2  # one pair of systems


def test_diversity_unknown_document(workspace):
    ws = workspace
    _score_both(ws)
    assert _run("diversity", "--config", ws / "config.json", "--doc", "nope") == 1


def test_diversity_and_evaluate_take_no_tie_policy_flag(workspace, capsys):
    ws = workspace
    _score_both(ws)
    assert _run("fuse", "--config", ws / "config.json") == 0
    before = {p.name: p.read_bytes() for p in (ws / "out").iterdir()}
    capsys.readouterr()
    for command in ("diversity", "evaluate"):
        assert _run(command, "--config", ws / "config.json", "--tie-policy", "ordinal") == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert {p.name: p.read_bytes() for p in (ws / "out").iterdir()} == before


def test_fuse_and_evaluate_take_their_settings_from_the_config_alone(workspace, capsys):
    ws = workspace
    _score_both(ws)
    before = {p.name: p.read_bytes() for p in (ws / "out").iterdir()}
    capsys.readouterr()
    generate = ("generate", "--prompts", ws / "prompts.csv")
    (ws / "prompts.csv").write_text(
        "prompt_id,label,publication_type,source,prompt_text\np00001,SDG4,t,s,SDG4 by s\n")
    for command, flag, value in (
        (("fuse",), "--tie-policy", "ordinal"), (("fuse",), "--strategies", "asc"),
        (("fuse",), "--min-subset", "2"), (("fuse",), "--weights", "perf"),
        (("evaluate",), "--tie-mode", "lenient"),
        (generate, "--endpoint", "http://127.0.0.1:9/gen"),
        (generate, "--auth-token", "sekret"), (generate, "--max-concurrency", "2"),
    ):
        assert _run(*command, "--config", ws / "config.json", flag, value) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: unrecognized arguments: {flag} {value}\n", err
    # generate's endpoint, token and concurrency come from a config alone
    assert _run(*generate) == 1
    assert capsys.readouterr() == ("", "error: the following arguments are required: --config\n")
    assert {p.name: p.read_bytes() for p in (ws / "out").iterdir()} == before


def test_tie_policy_changes_no_diversity_or_report_byte(workspace):
    ws = workspace
    _score_both(ws)
    assert _run("fuse", "--config", ws / "config.json") == 0
    config = json.loads((ws / "config.json").read_text())
    outputs = []
    for policy in ("fractional", "ordinal"):
        path = ws / f"{policy}.json"
        path.write_text(json.dumps({**config, "tie_policy": policy, "out_dir": policy}))
        assert _run("diversity", "--config", path, "--doc", "d01", "--doc", "d08") == 0
        # one fused.csv for both, since arc and wrc rank under the policy
        assert _run("evaluate", "--config", path, "--fused", ws / "out" / "fused.csv") == 0
        outputs.append({p.name: p.read_bytes() for p in (ws / policy).iterdir()})
    assert len(outputs[0]) == 4 + 2 + 6 and outputs[0] == outputs[1]
    # the diversity tables need no ranks
    label_set = LabelSet(tuple(LABELS))
    doc_ids, raw = load_score_cube(
        [(s, ws / "out" / f"scores_{s}.csv") for s in ("keyword", "tfidf")], label_set)
    batch = FusionBatch(doc_ids, label_set, ["kw", "tf"], raw, "ordinal")
    write_diversity(batch, ws / "library", ["d01", "d08"])
    assert "ranks" not in vars(batch)
    assert {p.name: p.read_bytes() for p in (ws / "library").iterdir()} == {
        name: data for name, data in outputs[0].items() if name.startswith(("div", "rsc"))}


def test_corpus_stats(workspace):
    ws = workspace
    assert _run(
        "corpus-stats", "--config", ws / "config.json",
        "--corpus", ws / "corpus.jsonl",
    ) == 0
    lines = (ws / "out" / "corpus_stats.csv").read_text().splitlines()
    assert lines[0] == "label,docs,mean_tokens,mean_ttr,mean_distinct2,mean_distinct3"
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["SDG13", "SDG4", "SDG6", "overall"]


def test_a_directory_corpus_gives_the_bytes_of_its_jsonl_twin(workspace):
    ws = workspace
    for doc_id, text, label in CORPUS:
        (ws / "cdir" / label).mkdir(parents=True, exist_ok=True)
        (ws / "cdir" / label / f"{doc_id}.txt").write_text(text)
    # the directory loader's order: sorted label directories, then sorted files
    _write_jsonl(ws / "twin.jsonl", sorted(CORPUS, key=lambda doc: (doc[2], doc[0])))
    outputs = []
    for corpus in ("cdir", "twin.jsonl"):
        config = _config_with(ws, f"{corpus}.json", out_dir=f"from-{corpus}")
        assert _run("corpus-stats", "--config", config, "--corpus", ws / corpus) == 0
        assert _run("score", "--config", config, "--scorer", "keyword",
                    "--corpus", ws / corpus, "--lexicon", ws / "lexicon.json") == 0
        outputs.append({p.name: p.read_bytes() for p in (ws / f"from-{corpus}").iterdir()})
    assert sorted(outputs[0]) == ["corpus_stats.csv", "scores_keyword.csv"]
    assert outputs[0] == outputs[1]


def test_gen_prompts(workspace):
    ws = workspace
    specs = [
        {
            "publication_type": "briefing note",
            "template": "Draft a briefing note on {label} in the voice of {source}",
            "sources": ["A. Author", "B. Writer"],
        }
    ]
    (ws / "specs.json").write_text(json.dumps(specs))
    assert _run(
        "gen-prompts", "--config", ws / "config.json", "--specs", ws / "specs.json"
    ) == 0
    lines = (ws / "out" / "prompts.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("p00001,SDG4,briefing note,A. Author,")


class _GenHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        payload = json.dumps({"text": f"text for: {body['prompt']}"}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_generate_command(workspace):
    ws = workspace
    specs = [{"publication_type": "post", "template": "{label} by {source}", "sources": ["s"]}]
    (ws / "specs.json").write_text(json.dumps(specs))
    assert _run("gen-prompts", "--config", ws / "config.json", "--specs", ws / "specs.json") == 0

    server = ThreadingHTTPServer(("127.0.0.1", 0), _GenHandler)
    # shutdown() waits for the next poll: 10 ms, not the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        endpoint = {"endpoint_url": f"http://127.0.0.1:{server.server_port}/gen"}
        code = _run(
            "generate", "--config", _config_with(ws, "generate.json", generation=endpoint),
            "--prompts", ws / "out" / "prompts.csv",
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert code == 0
    lines = (ws / "out" / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    assert record["text"] == "text for: SDG4 by s"
    assert record["label"] == "SDG4"


def test_fuse_writes_one_row_per_model_and_document(workspace):
    _score_both(workspace)
    for weights in ("ds", "perf"):
        assert _run("fuse", "--config", _config_with(workspace, "w.json", weights=weights)) == 0
        # the one pair kw+tf under four strategies, eight documents each
        assert len((workspace / "out" / "fused.csv").read_text().splitlines()) == 1 + 4 * 8


def test_exit_code_1_for_usage_errors(workspace):
    # argparse errors route through validation, not the I/O exit code
    assert main(["score", "--scorer", "nonsense", "--corpus", "x"]) == 1
    assert main([]) == 1
    assert main(["fuse"]) == 1  # missing --config


COMMANDS = {
    "score": ["--scorer", "keyword", "--corpus", "corpus.jsonl", "--lexicon", "lexicon.json"],
    "diversity": [], "fuse": [], "evaluate": [],
    "corpus-stats": ["--corpus", "corpus.jsonl"],
    "gen-prompts": ["--specs", "specs.json"],
    "generate": ["--prompts", "prompts.csv"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_requires_a_config_and_takes_no_out_flag(workspace, capsys, command):
    # the config's out_dir is the one output directory, so no flag stands in
    # for it and no command runs on defaults; both are refused before any
    # file is opened
    before = sorted(workspace.rglob("*"))
    for extra, error in ((["--config", workspace / "config.json", "--out", "out"],
                          "unrecognized arguments: --out out"),
                         ([], "the following arguments are required: --config")):
        assert _run(command, *COMMANDS[command], *extra) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
    assert sorted(workspace.rglob("*")) == before


def test_score_file_round_trip_awkward_floats(tmp_path):
    label_set = LabelSet(("L1", "L2", "L3"))
    scores = {
        "d2": {"L1": 1234567.891011, "L2": 2.220446049250313e-16, "L3": 0.0},
        "d1": {"L1": 0.1 + 0.2, "L2": 1.0 / 3.0, "L3": 1e-17},
    }
    path = tmp_path / "scores.csv"
    write_score_file(path, scores, label_set)
    doc_ids, raw = load_score_cube([("s", path)], label_set)
    assert doc_ids == ["d1", "d2"]
    # bit-exact round trip
    assert raw[:, 0].tolist() == [list(scores[d].values()) for d in doc_ids]


def test_load_score_cube_rejects_non_finite(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("doc_id,label,score\nd1,L1,nan\n")
    from cfakit import ValidationError

    with pytest.raises(ValidationError, match="scores.csv:2: score 'nan' is not finite"):
        load_score_cube([("s", path)], LabelSet(("L1", "L2", "L3")))


ABC_SCORES = "doc_id,label,score\nd1,A,0.1\nd1,B,0.7\nd1,C,0.4\n"
FUSED_HEADER = b"combo_id,doc_id,top1,tie_at_top,tied_top,ranking\n"
DOCS_13 = [b"d%02d" % i for i in range(1, 14)]
SCORES_13 = b"doc_id,label,score\n" + b"".join(
    b"%s,%s,0.%d\n" % (doc, label, i)
    for doc in DOCS_13 for i, label in enumerate((b"A", b"B", b"C"), start=1)
)
DOC_SPACE_SCORES = b"doc_id,label,score\n" + b"".join(
    b"%s,%s,0.%d\n" % (doc, label, i)
    for doc in (b"d 1", b"d_1") for i, label in enumerate((b"A", b"B", b"C"), start=1)
)

LEXICON_ABC = b'{"A": ["water"], "B": ["b"], "C": ["c"]}'
PROMPTS = b"prompt_id,label,publication_type,source,prompt_text\np00001,A,t,s,A by s\n"
# a labelled, an unlabelled and a reserved-label document
CORPUS_RESERVED = (b'{"doc_id": "d1", "text": "water", "label": "SDG1"}\n'
                   b'{"doc_id": "d2", "text": "sea", "label": null}\n'
                   b'{"doc_id": "d3", "text": "land", "label": "%s"}\n')

ENDPOINT = {"generation": {"endpoint_url": "http://127.0.0.1:9/gen"}}
TRAIN_ABC = (b'{"doc_id": "t1", "text": "water", "label": "A"}\n'
             b'{"doc_id": "t2", "text": "sea", "label": "B"}\n'
             b'{"doc_id": "t3", "text": "land", "label": "C"}\n')
TFIDF = ["score", "--scorer", "tfidf", "--corpus", "c.jsonl", "--train", "train.jsonl"]

# files whose line 3 holds one column too many
EXPERT_WIDE = b"doc_id,label\nd1,A\nd2,A,x\n"
DEEP = b"[" * 100_000
FUSED_WIDE = FUSED_HEADER + b"s+t:asc,d1,A,false,A,A|B|C\ns+t:asc,d2,A,false,A,A|B|C,x\n"

# (case, config fields over a valid two-system config on labels A, B, C,
#  files written over the valid ones, command, text the error must name)
MALFORMED = [
    ("labels-string", {"labels": "ABC"}, {}, ["fuse"],
     "'labels' must be an array of strings"),
    # every subset of two systems or more is fused under all four
    # strategies; no field bounds or filters the grid
    ("min-subset-unknown-field", {"min_subset": 2}, {}, ["fuse"],
     "unknown config fields ['min_subset']"),
    ("strategies-unknown-field", {"strategies": ["asc"]}, {}, ["fuse"],
     "unknown config fields ['strategies']"),
    ("system-id-number", {"systems": [{"id": 7, "path": "s.csv"}]}, {}, ["fuse"],
     "'id' must be a string"),
    # "+", ":" and "|" separate the parts of combo ids and report fields
    ("system-id-reserved-character",
     {"systems": [{"id": "s:1", "path": "s.csv"}, {"id": "t", "path": "t.csv"}]}, {}, ["fuse"],
     "system id 's:1' is empty or uses a reserved character from '+:|'"),
    # the config's path, then the text every call taking system ids gives
    ("system-id-repeated",
     {"systems": [{"id": "s", "path": "s.csv"}, {"id": "s", "path": "t.csv"}]}, {}, ["fuse"],
     "error: config.json: duplicate system id 's'"),
    # fuse loads the whole config, generation object included, but fetches nothing
    ("generation-key-misspelled", {"generation": {"max_concurency": 2}}, {}, ["fuse"],
     "unknown config fields ['generation.max_concurency']"),
    # a system entry holds its id and path; a weight there would go unused
    ("system-key-unknown",
     {"systems": [{"id": "s", "path": "s.csv", "weight": 2},
                  {"id": "t", "path": "t.csv", "tie": 1, "alpha": 0}],
      "min_subset": 2, "generation": {"retries": 3}}, {}, ["fuse"],
     "unknown config fields ['min_subset', 'generation.retries', 'systems[0].weight', "
     "'systems[1].alpha', 'systems[1].tie']"),
    ("score-file-not-utf8", {}, {"s.csv": b"doc_id,label,score\nd1,A,1\xff\n"}, ["fuse"],
     "s.csv: not valid UTF-8"),
    # Excel's "CSV UTF-8" starts a file with an invisible byte-order mark
    ("score-file-byte-order-mark", {}, {"s.csv": b"\xef\xbb\xbf" + ABC_SCORES.encode()},
     ["fuse"], "s.csv: expected header doc_id,label,score, "
     "found a byte-order mark (U+FEFF) before doc_id,label,score"),
    ("expert-file-byte-order-mark", {"expert_labels": "e.csv"},
     {"e.csv": b"\xef\xbb\xbfdoc_id,label\nd1,A\n"}, ["evaluate"],
     "e.csv: expected header doc_id,label, found a byte-order mark (U+FEFF) before doc_id,label"),
    # every other input refuses the mark as it is read, before any parse
    ("corpus-dir-byte-order-mark", {},
     {"cdir/A/d1.txt": b"\xef\xbb\xbfwater text", "lex.json": LEXICON_ABC},
     ["score", "--scorer", "keyword", "--corpus", "cdir", "--lexicon", "lex.json"],
     "error: cdir/A/d1.txt: starts with a byte-order mark (U+FEFF)"),
    ("corpus-jsonl-byte-order-mark", {},
     {"c.jsonl": b'\xef\xbb\xbf{"doc_id": "d1", "text": "water"}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "c.jsonl: starts with a byte-order mark (U+FEFF)"),
    ("config-byte-order-mark", None, {"config.json": b'\xef\xbb\xbf{"labels": ["A", "B", "C"]}'},
     ["fuse"], "config.json: starts with a byte-order mark (U+FEFF)"),
    ("config-not-utf8", None, {"config.json": b'{"labels": ["\xff"]}'}, ["fuse"],
     "config.json: not valid UTF-8"),
    ("corpus-jsonl-not-utf8", {}, {"c.jsonl": b'{"doc_id": "d1", "text": "\xff"}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "c.jsonl: not valid UTF-8"),
    # each field of a JSONL corpus record is named by its line
    ("corpus-jsonl-label-int", {},
     {"c.jsonl": b'{"doc_id": "a", "text": "x y", "label": "A"}\n'
                 b'{"doc_id": "b", "text": "x y", "label": 5}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "c.jsonl:2: 'label' must be a string, got int"),
    ("corpus-jsonl-label-empty", {}, {"c.jsonl": b'{"doc_id": "a", "text": "x", "label": ""}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "c.jsonl:1: 'label' must not be empty"),
    ("corpus-jsonl-doc-id-int", {}, {"c.jsonl": b'{"doc_id": 1, "text": "x"}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "c.jsonl:1: 'doc_id' must be a string, got int"),
    ("corpus-jsonl-text-array", {}, {"c.jsonl": b'{"doc_id": "a", "text": ["x"]}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "c.jsonl:1: 'text' must be a string, got list"),
    ("corpus-dir-not-utf8", {}, {"cdir/A/d1.txt": b"\xff"},
     ["corpus-stats", "--corpus", "cdir"], "d1.txt: not valid UTF-8"),
    ("corpus-dir-duplicate-doc", {}, {"cdir/A/d1.txt": b"one", "cdir/B/d1.txt": b"two"},
     ["corpus-stats", "--corpus", "cdir"],
     "error: cdir/B/d1.txt: duplicate document 'd1', also cdir/A/d1.txt"),
    # JSON nested past the decoder's recursion limit, in each JSON input
    ("config-nested-too-deeply", None, {"config.json": DEEP}, ["fuse"],
     "config.json: malformed JSON: maximum recursion depth exceeded"),
    ("lexicon-nested-too-deeply", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n', "lex.json": DEEP},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", "lex.json"],
     "lex.json: malformed JSON: maximum recursion depth exceeded"),
    ("specs-nested-too-deeply", {}, {"specs.json": DEEP}, ["gen-prompts", "--specs", "specs.json"],
     "specs.json: malformed JSON: maximum recursion depth exceeded"),
    ("corpus-jsonl-nested-too-deeply", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n' + DEEP + b"\n"},
     ["corpus-stats", "--corpus", "c.jsonl"],
     "c.jsonl:2: malformed JSON: maximum recursion depth exceeded"),
    ("generate-stored-corpus-nested-too-deeply",
     {"generation": {"endpoint_url": "http://127.0.0.1:9/gen"}},
     {"prompts.csv": PROMPTS,
      "out/corpus.jsonl": b'{"prompt_id": "p00001", "text": "x"}\n' + DEEP + b"\n"},
     ["generate", "--prompts", "prompts.csv"],
     "corpus.jsonl:2: malformed JSON: maximum recursion depth exceeded"),
    # an integer longer than int() converts (sys.get_int_max_str_digits())
    ("config-integer-too-long", None, {"config.json": b'{"labels": ' + b"1" * 5000 + b"}"},
     ["fuse"], "config.json: malformed JSON: Exceeds the limit"),
    ("score-field-over-csv-limit", {},
     {"s.csv": b'doc_id,label,score\n"' + b"x" * 200_000 + b'",A,1\n'}, ["fuse"],
     "s.csv:2: malformed CSV: field larger than field limit"),
    # csv.reader names the physical line of the field
    ("score-field-over-csv-limit-after-a-split-line", {},
     {"s.csv": b"doc_id,label,score\nd1,A,0.1\n" + b"x" * 200_000 + b",A,1\n"}, ["fuse"],
     "s.csv:3: malformed CSV: field larger than field limit"),
    # a score file with several faults names the first faulty row, each
    # row checked for empty fields, a score, its finiteness and a repeated
    # cell; then a file without rows; then the first document, in file
    # order, with a missing or unknown label; every file's own checks run
    # before the files are compared
    ("score-file-first-faulty-row-wins", {},
     {"s.csv": b"doc_id,label,score\nd1,A,x\nd1,,nan\nd1,B\nd1,Z,1\n"}, ["fuse"],
     "s.csv:2: score 'x' is not a number"),
    ("score-file-value-fault-before-a-short-row", {},
     {"s.csv": b"doc_id,label,score\nd1,A,0.1\nd1,B,inf\nd1,C\n"}, ["fuse"],
     "s.csv:3: score 'inf' is not finite"),
    ("score-file-empty-label", {},
     {"s.csv": b"doc_id,label,score\nd1,A,0.1\nd1,,1_0\nd1,A,0.2\n"}, ["fuse"],
     "s.csv:3: empty doc_id or label"),
    ("score-file-repeated-cell-after-crlf-and-a-blank-line", {},
     {"s.csv": b"doc_id,label,score\r\nd1,A,0.1\r\n\r\nd1,B,0.7\r\nd1,B,0.4\r\n"}, ["fuse"],
     "s.csv:5: duplicate row for document 'd1' label 'B'"),
    ("score-file-repeated-unknown-label", {},
     {"s.csv": ABC_SCORES.encode() + b"d1,Z,1\nd1,Z,2\n"}, ["fuse"],
     "s.csv:6: duplicate row for document 'd1' label 'Z'"),
    ("score-file-no-rows", {}, {"s.csv": b"doc_id,label,score\n\n"}, ["fuse"],
     "s.csv: no score rows"),
    ("score-file-first-document-in-file-order", {},
     {"s.csv": b"doc_id,label,score\nd2,A,1\nd1,A,1\nd1,B,1\nd1,C,1\nd1,Z,1\nd2,B,1\n"},
     ["fuse"], "s.csv: document 'd2' lacks scores for labels ['C']"),
    ("score-file-unknown-label", {}, {"s.csv": ABC_SCORES.encode() + b"d1,Z,1\n"}, ["fuse"],
     "s.csv: document 'd1' scores unknown labels ['Z']"),
    ("score-files-cover-different-documents", {},
     {"t.csv": ABC_SCORES.replace("d1", "d2").encode()}, ["diversity"],
     "systems 's' and 't' cover different documents: ['d1', 'd2']"),
    ("score-file-fault-before-the-files-are-compared", {},
     {"t.csv": ABC_SCORES.encode() + b"d2,A,1\n"}, ["evaluate"],
     "t.csv: document 'd2' lacks scores for labels ['B', 'C']"),
    ("prompt-sources-string", {},
     {"specs.json": b'[{"publication_type": "t", "template": "{label} by {source}", '
                    b'"sources": "abc"}]'},
     ["gen-prompts", "--specs", "specs.json"], "'sources' must be an array of strings"),
    # a path flag given as "" would name the working directory
    ("corpus-flag-empty", {}, {"cdir/A/d1.txt": b"water", "cdir/B/d2.txt": b"sea"},
     ["corpus-stats", "--corpus", ""], "error: --corpus must name a file, got an empty string"),
    ("lexicon-flag-empty", {}, {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n'},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", ""],
     "error: --lexicon must name a file, got an empty string"),
    # each scorer reads one input of its own; the other one's is refused
    ("tfidf-scorer-given-a-lexicon", {}, {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n'},
     ["score", "--scorer", "tfidf", "--corpus", "c.jsonl", "--train", "c.jsonl",
      "--lexicon", "nonexistent.json"], "error: the tfidf scorer does not read --lexicon"),
    ("keyword-scorer-given-training-data", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "lex.json": b'{"A": ["water"], "B": ["b"], "C": ["c"]}'},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", "lex.json",
      "--train", "nonexistent.jsonl"], "error: the keyword scorer does not read --train"),
    # a scorer without its own input is refused before the corpus is read
    ("keyword-scorer-without-a-lexicon-on-a-missing-corpus", {}, {},
     ["score", "--scorer", "keyword", "--corpus", "missing.jsonl"],
     "error: the keyword scorer requires --lexicon"),
    ("tfidf-scorer-without-training-data-on-a-malformed-corpus", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": \n'},
     ["score", "--scorer", "tfidf", "--corpus", "c.jsonl"],
     "error: the tfidf scorer requires --train"),
    # a lexicon covers the config's labels exactly
    ("lexicon-lacks-a-label", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "lex.json": b'{"A": ["water"], "B": ["b"]}'},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", "lex.json"],
     "error: lex.json: lexicon lacks phrases for labels ['C']"),
    ("lexicon-covers-an-unknown-label", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "lex.json": LEXICON_ABC[:-1] + b', "D": ["d"]}'},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", "lex.json"],
     "error: lex.json: lexicon covers unknown labels ['D']"),
    ("lexicon-phrases-string", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "lex.json": b'{"A": "water", "B": ["b"], "C": ["c"]}'},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", "lex.json"],
     "error: lex.json: lexicon label 'A' must be an array of strings"),
    ("perf-weights-expert-outside-labels", {"expert_labels": "e.csv", "weights": "perf"},
     {"e.csv": b"doc_id,label\nd1,Z\n"}, ["fuse"],
     "document 'd1' has expert label 'Z' outside the label set"),
    # the expert labels must cover exactly the run's documents
    ("expert-labels-lack-a-run-document", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd2,A\n"}, ["evaluate"],
     "expert labels missing for documents ['d1']"),
    ("expert-labels-name-a-document-outside-the-run", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\nd2,Z\n"}, ["evaluate"],
     "error: missing predictions for documents ['d2']"),
    ("fused-top1-outside-labels", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,Z,false,Z,Z|A|B\n"},
     ["evaluate"], "fused.csv:2: top1 label 'Z' is outside the label set"),
    ("fused-tied-outside-labels", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,false,A,A|B|C\ns+t:arc,d1,A,true,A|Z,A|Z|B\n"},
     ["evaluate"], "fused.csv:3: tied_top label 'Z' is outside the label set"),
    ("fused-tie-not-boolean", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,yes,A,A|B|C\n"},
     ["evaluate"], "fused.csv:2: tie_at_top must be true or false"),
    ("fused-tied-lacks-top1", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,true,B|C,B|C|A\n"},
     ["evaluate"], "fused.csv:2: tied_top must contain top1"),
    ("fused-tied-repeats-a-label", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,true,A|A,A|B|C\n"},
     ["evaluate"], "fused.csv:2: tied_top repeats a label"),
    ("fused-tie-false-with-a-tied-group", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,false,A|B,A|B|C\n"},
     ["evaluate"], "fused.csv:2: tie_at_top is false but tied_top lists 2 label(s)"),
    ("fused-tie-true-with-one-label", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,true,A,A|B|C\n"},
     ["evaluate"], "fused.csv:2: tie_at_top is true but tied_top lists 1 label(s)"),
    ("fused-duplicate-row", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,false,A,A|B|C\ns+t:asc,d1,B,false,B,B|A|C\n"},
     ["evaluate"], "fused.csv:3: duplicate row for 's+t:asc' / 'd1'"),
    ("fused-not-utf8-on-a-later-line", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"".join(b"s+t:m%d,d1,A,false,A,A|B|C\n" % i for i in range(500))
      + b"s+t:asc,d1,A,false,A,A|B|C\xff\n"},
     ["evaluate"], "fused.csv: not valid UTF-8 (line 502)"),
    # a row of one column too many on line 3, then a byte that is not UTF-8:
    # the first fault in file order is named, however many rows lie between
    ("expert-wide-row-before-a-bad-byte", {"expert_labels": "e.csv"},
     {"e.csv": EXPERT_WIDE + b"d3,\xff\n"}, ["evaluate"], "e.csv:3: expected 2 columns, found 3"),
    ("expert-wide-row-800-rows-before-a-bad-byte", {"expert_labels": "e.csv"},
     {"e.csv": EXPERT_WIDE + b"".join(b"m%04d,A\n" % m for m in range(800)) + b"d3,\xff\n"},
     ["evaluate"], "e.csv:3: expected 2 columns, found 3"),
    # a row is named by the line it starts on, past a quoted line break
    ("expert-wide-row-after-a-quoted-line-break", {"expert_labels": "e.csv"},
     {"e.csv": b'doc_id,label\n"d\n1",A\nd2,A,x\n'}, ["evaluate"],
     "e.csv:4: expected 2 columns, found 3"),
    ("expert-bad-byte-after-a-quoted-line-break", {"expert_labels": "e.csv"},
     {"e.csv": b'doc_id,label\n"d\n1",A\nd2,\xff\n'}, ["evaluate"],
     "e.csv: not valid UTF-8 (line 4)"),
    ("fused-wide-row-before-a-bad-byte", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n",
      "out/fused.csv": FUSED_WIDE + b"s+t:wrc,d1,A,false,A,A|B|\xff\n"},
     ["evaluate"], "fused.csv:3: expected 6 columns, found 7"),
    ("fused-wide-row-400-rows-before-a-bad-byte", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_WIDE
      + b"".join(b"s+t:m%04d,d1,A,false,A,A|B|C\n" % m for m in range(400))
      + b"s+t:wrc,d1,A,false,A,A|B|\xff\n"},
     ["evaluate"], "fused.csv:3: expected 6 columns, found 7"),
    # a document the run does not hold is named at its row, whatever the
    # expert labels say; a later fault in the file is not reached
    ("fused-document-outside-the-run", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,false,A,A|B|C\ns+t:asc,d9,A,false,A,A|B|C\ns+t:asc,d1,A,yes,A,A|B|C\n"},
     ["evaluate"], "fused.csv:3: document 'd9' is outside the run's documents"),
    ("fused-missing-document", {"expert_labels": "e.csv"},
     {"s.csv": ABC_SCORES.encode() + b"d2,A,0.1\nd2,B,0.2\nd2,C,0.3\n",
      "t.csv": ABC_SCORES.encode() + b"d2,A,0.1\nd2,B,0.2\nd2,C,0.3\n",
      "e.csv": b"doc_id,label\nd1,A\nd2,B\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,false,A,A|B|C\n"},
     ["evaluate"], "combo 's+t:asc': missing predictions for documents ['d2']"),
    ("fused-combo-misses-12-documents", {"expert_labels": "e.csv"},
     {"s.csv": SCORES_13, "t.csv": SCORES_13,
      "e.csv": b"doc_id,label\n" + b"".join(b"%s,A\n" % doc for doc in DOCS_13),
      "out/fused.csv": FUSED_HEADER + b"s+t:asc,d01,A,false,A,A|B|C\n"},
     ["evaluate"], "combo 's+t:asc': missing predictions for documents ['d02', 'd03', "
     "'d04', 'd05', 'd06', 'd07', 'd08', 'd09', 'd10', 'd11'] (12 in all)"),
    ("tie-policy-unknown", {"tie_policy": "dense"}, {}, ["fuse"],
     "unknown tie policy 'dense'; expected one of ('fractional', 'ordinal')"),
    ("tie-mode-unknown", {"tie_mode": "loose"}, {}, ["fuse"],
     "unknown tie mode 'loose'; expected one of ('strict', 'lenient')"),
    # the config's out_dir is the one output directory
    ("out-flag-removed", {}, {}, ["fuse", "--out", "x"], "unrecognized arguments: --out x"),
    # "" would name the config's own directory
    ("out-dir-empty", {"out_dir": ""}, {"c.jsonl": b'{"doc_id": "d1", "text": "x"}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "config.json: 'out_dir' must not be empty"),
    ("system-path-empty", {"systems": [{"id": "s", "path": "s.csv"}, {"id": "t", "path": ""}]},
     {}, ["fuse"], "config.json: system 1: 'path' must not be empty"),
    ("expert-labels-empty", {"expert_labels": ""}, {}, ["evaluate"],
     "config.json: 'expert_labels' must not be empty"),
    # no system call takes a path holding a NUL
    ("system-path-nul",
     {"systems": [{"id": "s", "path": "s.csv"}, {"id": "t", "path": "t\0.csv"}]}, {},
     ["diversity"], "error: config.json: system 1: 'path' must not hold a NUL character"),
    ("out-dir-nul", {"out_dir": "out\0"}, {}, ["fuse"],
     "error: config.json: 'out_dir' must not hold a NUL character"),
    ("expert-labels-nul", {"expert_labels": "e\0.csv"}, {}, ["evaluate"],
     "error: config.json: 'expert_labels' must not hold a NUL character"),
    ("endpoint-url-empty", {"generation": {"endpoint_url": ""}},
     {"prompts.csv": PROMPTS}, ["generate", "--prompts", "prompts.csv"],
     "generation.endpoint_url is required"),
    ("endpoint-url-missing", {}, {"prompts.csv": PROMPTS},
     ["generate", "--prompts", "prompts.csv"], "generation.endpoint_url is required"),
    # refused before any fetch: generate would store a record that a
    # corpus cannot hold
    ("prompt-id-empty", {"generation": {"endpoint_url": "http://127.0.0.1:9/gen"}},
     {"prompts.csv": PROMPTS + b",A,t,s,A by s\n"}, ["generate", "--prompts", "prompts.csv"],
     "prompts.csv:3: 'prompt_id' must not be empty"),
    ("prompt-label-empty", {"generation": {"endpoint_url": "http://127.0.0.1:9/gen"}},
     {"prompts.csv": PROMPTS + b"p00002,,t,s, by s\n"},
     ["generate", "--prompts", "prompts.csv"], "prompts.csv:3: 'label' must not be empty"),
    ("weights-unknown", {"weights": "equal"}, {}, ["fuse"],
     "unknown weight source 'equal'; expected one of ('ds', 'perf')"),
    ("rsc-tables-share-a-file-name", {},
     {"s.csv": DOC_SPACE_SCORES, "t.csv": DOC_SPACE_SCORES},
     ["diversity", "--doc", "d 1", "--doc", "d_1"],
     "documents 'd 1' and 'd_1' would both be written to rsc_d_1.csv"),
    ("generate-max-concurrency-zero",
     {"generation": {"endpoint_url": "http://127.0.0.1:9/gen", "max_concurrency": 0}},
     {"prompts.csv": PROMPTS}, ["generate", "--prompts", "prompts.csv"],
     "max_concurrency must be an integer of at least 1"),
    # the report's own row names are not corpus labels
    ("corpus-label-overall", {}, {"c.jsonl": CORPUS_RESERVED % b"overall"},
     ["corpus-stats", "--corpus", "c.jsonl"],
     "corpus labels ['overall'] are reserved for report rows"),
    ("corpus-label-unlabeled", {}, {"c.jsonl": CORPUS_RESERVED % b"unlabeled"},
     ["corpus-stats", "--corpus", "c.jsonl"],
     "corpus labels ['unlabeled'] are reserved for report rows"),
    # a config is an object that lists the labels, and each command's systems
    # or expert labels
    ("config-not-an-object", None, {"config.json": b'["A", "B", "C"]'}, ["fuse"],
     "error: config.json: config must be a JSON object"),
    ("system-without-a-path", {"systems": [{"id": "s"}, {"id": "t", "path": "t.csv"}]}, {},
     ["fuse"], "error: config.json: system 0 needs 'id' and 'path'"),
    ("labels-empty", {"labels": []}, {}, ["fuse"],
     "error: config must list the label set under 'labels'"),
    ("systems-empty", {"systems": []}, {}, ["fuse"],
     "error: config must list at least one system under 'systems'"),
    ("expert-labels-unset", {}, {}, ["evaluate"],
     "error: config must name the expert labels file"),
    # an expert or corpus row with an empty field or a repeated document
    ("expert-labels-empty-label", {"expert_labels": "e.csv"}, {"e.csv": b"doc_id,label\nd1,\n"},
     ["evaluate"], "error: e.csv:2: empty doc_id or label"),
    ("expert-labels-duplicate-document", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\nd1,B\n"}, ["evaluate"],
     "error: e.csv:3: duplicate document 'd1'"),
    ("corpus-jsonl-duplicate-doc", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "one"}\n{"doc_id": "d1", "text": "two"}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "error: c.jsonl:2: duplicate document 'd1'"),
    # a file with a header and no rows
    ("expert-labels-without-rows", {"expert_labels": "e.csv"}, {"e.csv": b"doc_id,label\n"},
     ["evaluate"], "error: e.csv: no expert labels"),
    ("fused-without-rows", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER}, ["evaluate"],
     "error: out/fused.csv: no fused predictions"),
    ("prompts-without-rows", ENDPOINT,
     {"prompts.csv": b"prompt_id,label,publication_type,source,prompt_text\n"},
     ["generate", "--prompts", "prompts.csv"], "error: prompts.csv: no prompts"),
    ("corpus-jsonl-without-documents", {}, {"c.jsonl": b"\n"},
     ["corpus-stats", "--corpus", "c.jsonl"], "error: c.jsonl: no documents"),
    ("corpus-dir-without-label-directories", {}, {"cdir/d1.txt": b"water"},
     ["corpus-stats", "--corpus", "cdir"],
     "error: cdir: no label directories with .txt documents"),
    ("score-file-wrong-header", {}, {"s.csv": b"wrong,header\n1,2\n"}, ["fuse"],
     "error: s.csv: expected header doc_id,label,score, found wrong,header"),
    ("diversity-doc-unknown", {}, {}, ["diversity", "--doc", "d9"],
     "error: unknown document 'd9'; known documents: ['d1']"),
    ("corpus-jsonl-record-without-text", {}, {"c.jsonl": b'{"doc_id": "d1"}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "error: c.jsonl:1: record needs doc_id and text"),
    # refused before any fetch, as the prompt file's own faults are
    ("prompt-id-repeated", ENDPOINT, {"prompts.csv": PROMPTS + b"p00001,B,t,s,B by s\n"},
     ["generate", "--prompts", "prompts.csv"],
     "error: prompts.csv:3: duplicate prompt id 'p00001'"),
    ("generate-stored-record-without-a-prompt-id", ENDPOINT,
     {"prompts.csv": PROMPTS, "out/corpus.jsonl": b'{"text": "x"}\n'},
     ["generate", "--prompts", "prompts.csv"],
     "error: out/corpus.jsonl:1: record must be an object with a prompt_id"),
    ("generate-stored-prompt-id-repeated", ENDPOINT,
     {"prompts.csv": PROMPTS, "out/corpus.jsonl": b'{"prompt_id": "p00001", "text": "x"}\n' * 2},
     ["generate", "--prompts", "prompts.csv"],
     "error: out/corpus.jsonl:2: duplicate prompt id 'p00001'"),
    # each prompt spec is an object of three fields whose template names
    # {label} and {source} once each
    ("specs-not-an-array", {}, {"specs.json": b'{"publication_type": "t"}'},
     ["gen-prompts", "--specs", "specs.json"],
     "error: specs.json: prompt specs must be a JSON array"),
    ("spec-not-an-object", {}, {"specs.json": b'["t"]'}, ["gen-prompts", "--specs", "specs.json"],
     "error: specs.json: prompt spec 0 must be an object"),
    ("spec-without-sources", {},
     {"specs.json": b'[{"publication_type": "t", "template": "{label} by {source}"}]'},
     ["gen-prompts", "--specs", "specs.json"],
     "error: specs.json: prompt spec 0 lacks field 'sources'"),
    ("spec-template-without-source", {},
     {"specs.json": b'[{"publication_type": "t", "template": "{label}", "sources": ["s"]}]'},
     ["gen-prompts", "--specs", "specs.json"],
     "error: prompt spec 0 ('t'): template must contain {source} exactly once, found 0"),
    ("spec-publication-type-empty", {},
     {"specs.json": b'[{"publication_type": "", "template": "{label} by {source}", '
                    b'"sources": ["s"]}]'},
     ["gen-prompts", "--specs", "specs.json"],
     "error: prompt spec 0: publication type is empty"),
    # each lexicon label has phrases of 1 to 4 tokens
    ("lexicon-label-without-phrases", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "lex.json": b'{"A": [], "B": ["b"], "C": ["c"]}'},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", "lex.json"],
     "error: lex.json: label 'A' has no phrases"),
    ("lexicon-phrase-of-five-tokens", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "lex.json": b'{"A": ["a b c d e"], "B": ["b"], "C": ["c"]}'},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", "lex.json"],
     "error: lex.json: label 'A': phrase 'a b c d e' must span 1 to 4 tokens, got 5"),
    # a training corpus labels every document, with the config's labels exactly
    ("training-document-unlabeled", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "train.jsonl": TRAIN_ABC + b'{"doc_id": "t4", "text": "x"}\n'},
     TFIDF, "error: training documents must be labeled; unlabeled: ['t4']"),
    ("training-corpus-lacks-a-label", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "train.jsonl": TRAIN_ABC.replace(b'"label": "C"', b'"label": "A"')},
     TFIDF, "error: no training documents for labels ['C']"),
    ("training-corpus-unknown-label", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "train.jsonl": TRAIN_ABC + b'{"doc_id": "t4", "text": "x", "label": "Z"}\n'},
     TFIDF, "error: training documents have unknown labels ['Z']"),
]


@pytest.mark.parametrize(
    "fields, files, command, message", [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_input_exits_1_with_one_error_line(
    run_python, tmp_path, fields, files, command, message
):
    _exits_with_one_error_line(run_python, tmp_path, fields, files, command, message, 1)


# (case, config fields and files as in MALFORMED, command, exit code, text
#  the error must name): an input that cannot be read exits 2, an input
#  outside an operation's domain 3
UNREADABLE_OR_OUT_OF_DOMAIN = [
    ("corpus-missing", {}, {"lex.json": LEXICON_ABC},
     ["score", "--scorer", "keyword", "--corpus", "missing.jsonl", "--lexicon", "lex.json"], 2,
     "error: corpus not found: missing.jsonl"),
    ("score-file-missing",
     {"systems": [{"id": "s", "path": "s.csv"}, {"id": "u", "path": "u.csv"}]}, {}, ["fuse"], 2,
     "error: file not found: u.csv"),
    # an input read as a CSV table
    ("expert-labels-missing", {"expert_labels": "e.csv"}, {}, ["evaluate"], 2,
     "error: file not found: e.csv"),
    ("fused-missing-before-fuse", {"expert_labels": "e.csv"}, {"e.csv": b"doc_id,label\nd1,A\n"},
     ["evaluate"], 2, "error: file not found: out/fused.csv"),
    ("labels-two", {"labels": ["A", "B"]}, {}, ["fuse"], 3,
     "error: label set needs at least 3 labels, got 2"),
    # the grid is refused before fuse makes its out_dir
    ("grid-of-one-system", {"systems": [{"id": "s", "path": "s.csv"}], "out_dir": "fresh"}, {},
     ["fuse"], 3, "error: a combination grid needs at least two systems, got 1"),
    ("diversity-of-one-system", {"systems": [{"id": "s", "path": "s.csv"}]}, {}, ["diversity"],
     3, "error: diversity reports need at least two systems"),
]


@pytest.mark.parametrize(
    "fields, files, command, code, message",
    [case[1:] for case in UNREADABLE_OR_OUT_OF_DOMAIN],
    ids=[case[0] for case in UNREADABLE_OR_OUT_OF_DOMAIN],
)
def test_an_unreadable_or_out_of_domain_input_exits_2_or_3_with_one_error_line(
    run_python, tmp_path, fields, files, command, code, message
):
    _exits_with_one_error_line(run_python, tmp_path, fields, files, command, message, code)


# MALFORMED's rows for a path that the file system encoding cannot encode:
# under LC_ALL=C with UTF-8 mode off it is ASCII, so "é" fails before any
# system call.  Such a path is an input that cannot be read or an output
# that cannot be written (exit 2), named as stderr's backslashreplace
# error handler writes it.
UNENCODABLE = [
    ("score-path-not-encodable", {"systems": [{"id": "s", "path": "s\u00e9.csv"},
                                              {"id": "t", "path": "t.csv"}]},
     {"s\u00e9.csv": ABC_SCORES.encode()}, ["fuse"], "error: cannot read s\\xe9.csv: "),
    ("out-dir-not-encodable", {"out_dir": "out\u00e9"}, {}, ["fuse"],
     "error: cannot write out\\xe9/fused.csv: "),
]


@pytest.mark.parametrize(
    "fields, files, command, message", [case[1:] for case in UNENCODABLE],
    ids=[case[0] for case in UNENCODABLE],
)
def test_a_path_the_locale_cannot_encode_exits_2_with_one_error_line(
    run_python, tmp_path, fields, files, command, message
):
    _exits_with_one_error_line(run_python, tmp_path, fields, files, command, message, 2,
                               env={"LC_ALL": "C", "PYTHONUTF8": "0"})


def _exits_with_one_error_line(run_python, tmp_path, fields, files, command, message, code,
                               env=None):
    """Run command on a valid two-system config on labels A, B, C with
    fields set over it and files written over the valid ones; it must exit
    with code, print one error line that holds message, and write nothing."""
    config = {
        "labels": ["A", "B", "C"],
        "systems": [{"id": "s", "path": "s.csv"}, {"id": "t", "path": "t.csv"}],
        "out_dir": "out",
    }
    (tmp_path / "s.csv").write_text(ABC_SCORES)
    (tmp_path / "t.csv").write_text(ABC_SCORES)
    if fields is not None:
        (tmp_path / "config.json").write_text(json.dumps({**config, **fields}))
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    inputs = sorted(tmp_path.rglob("*"))
    result = run_python("-m", "cfakit.cli", *command, "--config", "config.json",
                        cwd=tmp_path, env=env)
    assert result.returncode == code, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert message in lines[0]
    assert sorted(tmp_path.rglob("*")) == inputs  # nothing written


def _fused_workspace(tmp_path, fused):
    """A two-system config on labels A, B, C with one expert document, d1,
    and out/fused.csv holding fused."""
    (tmp_path / "s.csv").write_text(ABC_SCORES)
    (tmp_path / "t.csv").write_text(ABC_SCORES)
    (tmp_path / "e.csv").write_text("doc_id,label\nd1,B\n")
    (tmp_path / "out").mkdir(exist_ok=True)
    (tmp_path / "out" / "fused.csv").write_bytes(fused)
    (tmp_path / "config.json").write_text(json.dumps({
        "labels": ["A", "B", "C"],
        "systems": [{"id": "s", "path": "s.csv"}, {"id": "t", "path": "t.csv"}],
        "expert_labels": "e.csv",
        "out_dir": "out",
    }))


def test_empty_fused_flag_names_no_file(run_python, tmp_path):
    # a valid <out>/fused.csv is there, but --fused "" does not name it:
    # "" would be the current directory, so it is refused as no file
    _fused_workspace(tmp_path, FUSED_HEADER + b"s+t:asc,d1,B,false,B,B|C|A\n")
    command = ("-m", "cfakit.cli", "evaluate", "--config", "config.json")
    assert run_python(*command, cwd=tmp_path).returncode == 0
    (tmp_path / "out" / "report.json").unlink()
    files = sorted(tmp_path.rglob("*"))
    result = run_python(*command, "--fused", "", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stderr == "error: --fused must name a file, got an empty string\n"
    assert sorted(tmp_path.rglob("*")) == files  # nothing written


# 2,500 valid rows of 29 bytes: the lines below them lie past the first 64 KiB
FUSED_PADDING = FUSED_HEADER + b"".join(
    b"s+t:m%04d,d1,A,false,A,A|B|C\n" % m for m in range(2_500))


@pytest.mark.parametrize("tail, message", [
    (b"s+t:asc,d1,A,false,A,A|B|C,x\n", "out/fused.csv:2502: expected 6 columns, found 7"),
    (b"s+t:asc,d1,A,false,A,A|B|C\ns+t:asc,d1,B,false,B,B|A|C\n",
     "out/fused.csv:2503: duplicate row for 's+t:asc' / 'd1'"),
    (b"s+t:asc,d1,A,true,A|Z,A|Z|B\n",
     "out/fused.csv:2502: tied_top label 'Z' is outside the label set"),
], ids=["seven-columns", "repeated-row", "tied-top-outside-labels"])
def test_fused_fault_past_64_kib_is_named_by_line(run_python, tmp_path, tail, message):
    _fused_workspace(tmp_path, FUSED_PADDING + tail)
    result = run_python("-m", "cfakit.cli", "evaluate", "--config", "config.json", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stderr == f"error: {message}\n"


def test_needless_quotes_past_64_kib_leave_the_report_alone(tmp_path):
    _fused_workspace(tmp_path, FUSED_PADDING + b"s+t:asc,d1,A,false,A,A|B|C\n")
    assert _run("evaluate", "--config", tmp_path / "config.json") == 0
    report = (tmp_path / "out" / "report.json").read_bytes()
    (tmp_path / "out" / "fused.csv").write_bytes(
        FUSED_PADDING + b's+t:asc,d1,"A",false,A,A|B|C\n')
    assert _run("evaluate", "--config", tmp_path / "config.json") == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == report


@pytest.mark.parametrize("command", [
    ["corpus-stats", "--corpus", "c.jsonl"],
    ["generate", "--prompts", "prompts.csv"],
    ["fuse"],
])
def test_empty_config_flag_names_no_file(run_python, tmp_path, command):
    # "" names no config file, so the defaults do not stand in for it
    (tmp_path / "c.jsonl").write_text('{"doc_id": "d1", "text": "water", "label": "A"}\n')
    (tmp_path / "prompts.csv").write_text(
        "prompt_id,label,publication_type,source,prompt_text\np00001,A,t,s,A by s\n")
    result = run_python("-m", "cfakit.cli", *command, "--config", "", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stderr.splitlines()
    assert lines == ["error: --config must name a file, got an empty string"], result.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.jsonl", "prompts.csv"]


@pytest.mark.parametrize("fields, fault", [
    ({"labels": "x", "tie_policy": 5, "generation": {"max_concurrency": "2"}},
     "'labels' must be an array of strings, got str"),
    ({"tie_policy": "dense", "out_dir": 3}, "'out_dir' must be a string, got int"),
    ({"generation": {"max_concurrency": "2"}, "weights": "equal"},
     "'max_concurrency' must be an integer, got str"),
], ids=["labels-first", "out-dir-before-the-tie-policy", "types-before-choices"])
def test_config_with_several_faults_names_the_first(tmp_path, capsys, fields, fault):
    # every field's type is checked in field order, each choice's value after
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    assert _run("fuse", "--config", path) == 1
    assert capsys.readouterr().err == f"error: {path}: {fault}\n"


def test_atomic_write_leaves_other_writers_temp_files_alone(tmp_path):
    target = tmp_path / "out.csv"
    other = tmp_path / "out.csv.tmp"
    other.write_text("another run's temporary file")
    atomic_write_text(target, "ours\n")
    assert target.read_text() == "ours\n"
    assert other.read_text() == "another run's temporary file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]
    # a write that fails midway keeps the old file and leaves no temp file
    with pytest.raises(TypeError):
        atomic_write_text(target, None)
    assert target.read_text() == "ours\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


def test_fused_writer_failing_midway_keeps_the_old_file(tmp_path):
    target = tmp_path / "fused.csv"
    target.write_bytes(b"the previous run's grid\n")
    order, tied = np.array([[0, 1, 2], [2, 0, 1]]), np.array([1, 2])

    def failing_kernel():
        yield "s+t:arc", order, tied
        raise RuntimeError("the kernel failed")

    # the first model reached the temporary file before the error
    with pytest.raises(RuntimeError):
        write_fused_file(target, _batch_of("ABC", ["d1", "d2"]), failing_kernel())
    assert target.read_bytes() == b"the previous run's grid\n"
    assert [p.name for p in tmp_path.iterdir()] == ["fused.csv"]


@pytest.mark.parametrize("command, written", [
    (("fuse",), "fused.csv"),
    (("diversity",), "diversity_pairs.csv"),
    (("generate", "--prompts", "prompts.csv"), "corpus.jsonl"),
], ids=["fuse", "diversity", "generate"])
def test_an_out_dir_that_names_a_file_is_named_in_one_error_line(
    run_python, tmp_path, command, written
):
    (tmp_path / "s.csv").write_text(ABC_SCORES)
    (tmp_path / "t.csv").write_text(ABC_SCORES)
    (tmp_path / "prompts.csv").write_text(
        "prompt_id,label,publication_type,source,prompt_text\np1,A,post,s,Write.\n")
    (tmp_path / "outfile").write_text("a file, not a directory\n")
    (tmp_path / "config.json").write_text(json.dumps({
        "labels": ["A", "B", "C"],
        "systems": [{"id": "s", "path": "s.csv"}, {"id": "t", "path": "t.csv"}],
        "out_dir": "outfile",
        # never contacted: generate writes its corpus file before it fetches
        "generation": {"endpoint_url": "http://127.0.0.1:9/"},
    }))
    files = sorted(tmp_path.rglob("*"))
    result = run_python("-m", "cfakit.cli", command[0], "--config", "config.json",
                        *command[1:], cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith(f"error: cannot write {Path('outfile', written)}: "), lines[0]
    assert sorted(tmp_path.rglob("*")) == files  # nothing written
    assert (tmp_path / "outfile").read_text() == "a file, not a directory\n"


def test_a_failed_rename_names_the_target_and_keeps_its_bytes(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("the previous run's report\n")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(src), None, str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(DataAccessError) as raised:
        atomic_write_text(target, "this run's report\n")
    assert str(raised.value) == f"cannot write {target}: Permission denied"
    assert raised.value.exit_code == 2
    assert target.read_text() == "the previous run's report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]  # no temporary file


def test_fused_cache_is_written_unless_a_nul_is_written(tmp_path):
    target, cache = tmp_path / "fused.csv", tmp_path / "fused.csv.cache"
    order, tied = np.array([[0, 1, 2], [2, 0, 1]]), np.array([1, 2])
    # a NUL removes the cache of the grid before; a quoted combo id keeps one
    for doc_ids, grid, cached in ((["d\0", "d2"], [("s+t:asc", order, tied)], False),
                                  (["d1", "d2"], [("s,t:asc", order, tied)], True)):
        write_fused_file(target, _batch_of("ABC", ["d1", "d2"]), [("s+t:asc", order, tied)])
        assert _fused_cache(target, tuple("ABC"), ["d1", "d2"]) is not None
        write_fused_file(target, _batch_of("ABC", doc_ids), grid)
        assert cache.exists() == cached
        if cached:
            assert _fused_cache(target, tuple("ABC"), doc_ids)[1] == ("s,t:asc",)


def test_a_cache_that_cannot_be_removed_is_named(tmp_path):
    # a NUL in a doc id means no cache is written and the old one removed;
    # a directory in its place cannot be
    target, cache = tmp_path / "fused.csv", tmp_path / "fused.csv.cache"
    cache.mkdir()
    order, tied = np.array([[0, 1, 2], [2, 0, 1]]), np.array([1, 2])
    with pytest.raises(DataAccessError) as raised:
        write_fused_file(target, _batch_of("ABC", ["d\x001", "d2"]), [("s+t:asc", order, tied)])
    assert str(raised.value).startswith(f"cannot write {cache}: ")
    assert raised.value.exit_code == 2
    assert cache.is_dir()


def test_a_fused_cache_is_read_only_for_its_labels_documents_and_field_limit(tmp_path):
    target = tmp_path / "fused.csv"
    order, tied = np.array([[0, 1, 2], [2, 0, 1]]), np.array([1, 2])
    write_fused_file(target, _batch_of("ABC", ["d1", "d2"]), [("s+t:asc", order, tied)])
    for labels, doc_ids in ((("C", "B", "A"), ["d1", "d2"]), (("A", "B", "C"), ["d2", "d1"])):
        assert _fused_cache(target, labels, doc_ids) is None
    # a cache that still carries the longest_line key of older writers is read
    cache = tmp_path / "fused.csv.cache"
    line, index = cache.read_bytes().split(b"\n", 1)
    header = {**json.loads(line), "longest_line": 27}
    del header["check"]
    header["check"] = zlib.crc32(index, zlib.crc32(json.dumps(header, sort_keys=True).encode()))
    cache.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + index)
    assert _fused_cache(target, ("A", "B", "C"), ["d1", "d2"]) is not None
    # At every csv.field_size_limit() the cache is read exactly when the
    # file's rows can be, and gives what they give.  The grids' longest
    # fields are, in turn, a combo id, a doc id, the ranking and a header
    # name (tie_at_top); the first three hold a ",", a '"' and a line break
    # in labels and ids.
    quoted = ("a,b", 'q"', "n\nl")
    grids = (
        (quoted, ['d,"1', "d\n2"], ['s"t+u,v:wrc-ds', 's"t+u,v:wsc-ds']),
        (quoted, ['d,"1 of a long name', "d\n2"], ['s,"t:a']),
        (("a,bbbbbb", 'q"qqqq', "n\nllll"), ['d,"1', "d\n2"], ['s,"t:a']),
        (("A", "B", "C"), ["d1", "d2"], ["s:a"]),
    )
    bare = tmp_path / "rows" / "fused.csv"  # a copy without a cache
    bare.parent.mkdir()
    limit = csv.field_size_limit()
    try:
        for labels, doc_ids, combo_ids in grids:
            batch = _batch_of(labels, doc_ids)
            write_fused_file(target, batch, [(combo_id, order, tied) for combo_id in combo_ids])
            bare.write_bytes(target.read_bytes())
            bound = max(map(len, (*FUSED_HEADER_NAMES, *combo_ids, *doc_ids, "|".join(labels))))
            for field_limit in range(1, bound + 3):
                csv.field_size_limit(field_limit)
                hit = _fused_cache(target, labels, doc_ids) is not None
                try:
                    rows = load_fused_predictions(bare, batch)
                except ValidationError as exc:
                    assert "field larger than field limit" in str(exc)
                    rows = None
                assert hit == (rows is not None) == (field_limit >= bound)
                if hit:
                    combo, top1, tied_top = load_fused_predictions(target, batch)
                    assert combo == rows[0] == tuple(combo_ids)
                    assert np.array_equal(top1, rows[1]) and np.array_equal(tied_top, rows[2])
    finally:
        csv.field_size_limit(limit)


def test_fused_writer_memory_does_not_grow_with_the_grid(tmp_path):
    rng = np.random.default_rng(7)
    label_set = LabelSet(tuple(f"SDG{k}" for k in range(1, 18)))
    doc_ids = [f"doc{d:03d}" for d in range(200)]
    systems = [f"sys{j}" for j in range(6)]
    batch = FusionBatch(doc_ids, label_set, systems, rng.random((200, 6, 17)).round(2))
    # the batch's own arrays, whose size the grid does not set, exist
    # before the trace starts
    assert batch.normalized is not None and batch.ranks is not None and batch.cd is not None
    grid = grid_arrays(batch)
    path = tmp_path / "fused.csv"
    tracemalloc.start()
    try:
        models = write_fused_file(path, batch, (
            (combo_id, order, tied) for combo_id, (_, order, tied, _) in grid
        ))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert models == 57 * 4
    size = path.stat().st_size
    assert size > 4_000_000
    # one model's rows at a time, never the grid's
    assert peak < size / 4, (peak, size)


def test_fused_reader_memory_on_a_cache_hit_is_the_cache_and_the_arrays(tmp_path):
    rng = np.random.default_rng(7)
    label_set = LabelSet(tuple(f"SDG{k}" for k in range(1, 18)))
    doc_ids = [f"doc{d:03d}" for d in range(200)]
    systems = [f"sys{j}" for j in range(6)]
    batch = FusionBatch(doc_ids, label_set, systems, rng.random((200, 6, 17)).round(2))
    path = tmp_path / "fused.csv"
    models = write_fused_file(path, batch, (
        (combo_id, order, tied) for combo_id, (_, order, tied, _) in grid_arrays(batch)
    ))
    assert models == 57 * 4
    assert _fused_cache(path, label_set.labels, doc_ids) is not None
    tracemalloc.start()
    try:
        combo_ids, top1, tied = load_fused_predictions(path, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size, cache = path.stat().st_size, path.with_name("fused.csv.cache").stat().st_size
    assert size > 4_000_000 and top1.shape == (models, 200)
    # Beyond the arrays it returns, the reader holds the cache's bytes and a
    # small working set (numpy's 64 KiB buffer for indexing with the int32
    # index, the header's ids and heads as objects), never the file's text.
    returned = top1.nbytes + tied.nbytes
    assert peak - returned < cache + 256 * 1024, (peak, returned, cache)
    assert peak < size / 3, (peak, size)


def test_diversity_writes_one_rsc_table_per_distinct_document(workspace, capsys):
    ws = workspace
    _score_both(ws)
    assert _run("diversity", "--config", ws / "config.json", "--doc", "d01", "--doc", "d01") == 0
    assert capsys.readouterr().out.endswith(" and 1 RSC tables\n")
    # two documents sharing one RSC file name: nothing is written
    for name in ("s.csv", "t.csv"):
        (ws / name).write_bytes(DOC_SPACE_SCORES)
    (ws / "space.json").write_text(json.dumps({
        "labels": ["A", "B", "C"], "out_dir": "fresh",
        "systems": [{"id": "s", "path": "s.csv"}, {"id": "t", "path": "t.csv"}],
    }))
    assert _run("diversity", "--config", ws / "space.json", "--doc", "d 1", "--doc", "d_1") == 1
    assert not (ws / "fresh").exists()


def _quoted_csv(header, rows) -> str:
    return "".join(",".join(f'"{v}"' for v in row) + "\n" for row in [header, *rows])


def test_carriage_returns_in_ids_round_trip(run_python, tmp_path):
    """Doc ids and labels holding a bare \\r survive fuse, evaluate and
    diversity: every CSV written reads back through csv.reader."""
    docs, labels = ["d\r1", "d2"], ["A\r", "B", "C"]
    for name, shift in (("s.csv", 0), ("t.csv", 1)):
        rows = [(d, label, (i + j + shift) % 3) for i, d in enumerate(docs)
                for j, label in enumerate(labels)]
        (tmp_path / name).write_text(_quoted_csv(("doc_id", "label", "score"), rows),
                                     newline="")
    (tmp_path / "e.csv").write_text(
        _quoted_csv(("doc_id", "label"), zip(docs, labels)), newline="")
    (tmp_path / "config.json").write_text(json.dumps({
        "labels": labels, "expert_labels": "e.csv", "out_dir": "out",
        "systems": [{"id": "s", "path": "s.csv"}, {"id": "t", "path": "t.csv"}],
    }))
    for command in (["fuse"], ["evaluate"], ["diversity", "--doc", docs[0]]):
        result = run_python("-m", "cfakit.cli", *command, "--config", "config.json",
                            cwd=tmp_path)
        assert result.returncode == 0, result.stderr
    written = sorted((tmp_path / "out").glob("*.csv"))
    assert "rsc_d_1.csv" in [path.name for path in written]
    for path in written:
        with open(path, encoding="utf-8", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert rows and all(len(row) == len(header) for row in rows), path.name
        columns = dict(zip(header, zip(*rows)))
        if "doc_id" in columns:
            # disagreements.csv lists only the documents in some category
            found = set(columns["doc_id"])
            assert found <= set(docs) and (found == set(docs) or path.name == "disagreements.csv")
        for name in ("label", "top1", "expert", "individual", "combined"):
            assert set(columns.get(name, ())) <= set(labels), (path.name, name)
        for name in ("tied_top", "ranking"):
            assert {x for v in columns.get(name, ()) for x in v.split("|")} <= set(labels)

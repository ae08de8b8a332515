"""End-to-end tests for the command line interface."""

from __future__ import annotations

import csv
import json
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from cfakit import FusionBatch, LabelSet, ValidationError
from cfakit.cli import main
from cfakit.combine import grid_arrays
from cfakit.fileio import atomic_write_text, load_score_cube, write_fused_file, write_score_file

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
    from cfakit import KeywordLexicon, keyword_scorer

    lexicon = KeywordLexicon.from_dict(LEXICON)
    for doc_id, text, _ in CORPUS:
        expected = keyword_scorer(text, lexicon)
        got = raw[doc_ids.index(doc_id), 0].tolist()
        assert got == [expected[label] for label in LABELS]  # bit-exact


def test_reruns_are_byte_identical(workspace):
    ws = workspace
    config = ws / "config.json"
    _score_both(ws)
    assert _run("fuse", "--config", config) == 0
    first_fused = (ws / "out" / "fused.csv").read_bytes()
    assert _run("evaluate", "--config", config) == 0
    first_report = (ws / "out" / "report.json").read_bytes()
    first_tables = {
        name: (ws / "out" / name).read_bytes()
        for name in ("overall_precision.csv", "grid_stats.csv", "strategy_precision.csv")
    }

    assert _run("fuse", "--config", config) == 0
    assert (ws / "out" / "fused.csv").read_bytes() == first_fused
    assert _run("evaluate", "--config", config) == 0
    assert (ws / "out" / "report.json").read_bytes() == first_report
    for name, body in first_tables.items():
        assert (ws / "out" / name).read_bytes() == body


def test_fuse_strategy_subset_flag(workspace):
    ws = workspace
    _score_both(ws)
    assert _run("fuse", "--config", ws / "config.json", "--strategies", "asc,arc") == 0
    lines = (ws / "out" / "fused.csv").read_text().splitlines()
    combos = {line.split(",")[0] for line in lines[1:]}
    assert combos == {"kw+tf:asc", "kw+tf:arc"}


def test_fuse_with_performance_weights(workspace):
    ws = workspace
    _score_both(ws)
    assert _run("fuse", "--config", ws / "config.json", "--weights", "perf") == 0
    lines = (ws / "out" / "fused.csv").read_text().splitlines()
    combos = {line.split(",")[0] for line in lines[1:]}
    assert combos == {"kw+tf:asc", "kw+tf:arc", "kw+tf:wsc-perf", "kw+tf:wrc-perf"}


def test_fuse_computes_performance_weights_only_for_weighted_strategies(workspace):
    ws = workspace
    _score_both(ws)
    config = json.loads((ws / "config.json").read_text())
    del config["expert_labels"]
    (ws / "unweighted.json").write_text(json.dumps({**config, "weights": "perf"}))
    # asc and arc take no weights, so no expert file is needed
    assert _run("fuse", "--config", ws / "unweighted.json", "--strategies", "asc,arc") == 0
    lines = (ws / "out" / "fused.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"kw+tf:arc", "kw+tf:asc"}
    assert _run("fuse", "--config", ws / "unweighted.json", "--strategies", "asc,wsc") == 1


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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        code = _run(
            "generate", "--config", ws / "config.json",
            "--prompts", ws / "out" / "prompts.csv",
            "--endpoint", f"http://127.0.0.1:{server.server_port}/gen",
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
        assert _run("fuse", "--config", workspace / "config.json", "--weights", weights) == 0
        # the one pair kw+tf under four strategies, eight documents each
        assert len((workspace / "out" / "fused.csv").read_text().splitlines()) == 1 + 4 * 8


def test_exit_code_2_for_missing_files(workspace):
    ws = workspace
    assert _run(
        "score", "--config", ws / "config.json", "--scorer", "keyword",
        "--corpus", ws / "missing.jsonl", "--lexicon", ws / "lexicon.json",
    ) == 2
    # fuse before any score files exist
    assert _run("fuse", "--config", ws / "config.json") == 2


def test_exit_code_3_for_too_few_labels(workspace, tmp_path):
    config = {
        "labels": ["A", "B"],
        "systems": [{"id": "s", "path": "s.csv"}],
        "out_dir": ".",
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(config))
    (tmp_path / "s.csv").write_text("doc_id,label,score\nd1,A,1.0\nd1,B,2.0\n")
    assert _run("fuse", "--config", path) == 3
    # one system: the grid fails before fuse opens its output
    path.write_text(json.dumps({**config, "labels": ["A", "B", "C"], "out_dir": "fresh"}))
    (tmp_path / "s.csv").write_text("doc_id,label,score\nd1,A,1.0\nd1,B,2.0\nd1,C,0.5\n")
    assert _run("fuse", "--config", path) == 3
    assert not (tmp_path / "fresh").exists()


def test_exit_code_1_for_malformed_inputs(workspace):
    ws = workspace
    bad = ws / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    config = {
        "labels": LABELS,
        "systems": [{"id": "s", "path": "bad.csv"}],
        "out_dir": "out",
    }
    (ws / "bad.json").write_text(json.dumps(config))
    assert _run("fuse", "--config", ws / "bad.json") == 1


def test_exit_code_1_for_usage_errors(workspace):
    # argparse errors route through validation, not the I/O exit code
    assert main(["score", "--scorer", "nonsense", "--corpus", "x"]) == 1
    assert main([]) == 1
    assert main(["fuse"]) == 1  # missing --config


def test_exit_code_1_for_unknown_config_fields(workspace, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"labels": LABELS, "bogus": 1}))
    assert _run("fuse", "--config", path) == 1


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

# files whose line 3 holds one column too many
EXPERT_WIDE = b"doc_id,label\nd1,A\nd2,A,x\n"
FUSED_WIDE = FUSED_HEADER + b"s+t:asc,d1,A,false,A,A|B|C\ns+t:asc,d2,A,false,A,A|B|C,x\n"

# (case, config fields over a valid two-system config on labels A, B, C,
#  files written over the valid ones, command, text the error must name)
MALFORMED = [
    ("labels-string", {"labels": "ABC"}, {}, ["fuse"],
     "'labels' must be an array of strings"),
    ("strategies-string", {"strategies": "asc"}, {}, ["fuse"],
     "'strategies' must be an array of strings"),
    ("min-subset-string", {"min_subset": "x"}, {}, ["fuse"],
     "'min_subset' must be an integer"),
    ("system-id-number", {"systems": [{"id": 7, "path": "s.csv"}]}, {}, ["fuse"],
     "'id' must be a string"),
    # fuse loads the whole config, generation object included, but fetches nothing
    ("generation-key-misspelled", {"generation": {"max_concurency": 2}}, {}, ["fuse"],
     "unknown config fields ['generation.max_concurency']"),
    ("score-file-not-utf8", {}, {"s.csv": b"doc_id,label,score\nd1,A,1\xff\n"}, ["fuse"],
     "s.csv: not valid UTF-8"),
    ("config-not-utf8", None, {"config.json": b'{"labels": ["\xff"]}'}, ["fuse"],
     "config.json: not valid UTF-8"),
    ("corpus-jsonl-not-utf8", {}, {"c.jsonl": b'{"doc_id": "d1", "text": "\xff"}\n'},
     ["corpus-stats", "--corpus", "c.jsonl"], "c.jsonl: not valid UTF-8"),
    ("corpus-dir-not-utf8", {}, {"cdir/A/d1.txt": b"\xff"},
     ["corpus-stats", "--corpus", "cdir"], "d1.txt: not valid UTF-8"),
    ("corpus-dir-duplicate-doc", {}, {"cdir/A/d1.txt": b"one", "cdir/B/d1.txt": b"two"},
     ["corpus-stats", "--corpus", "cdir"], "duplicate document 'd1'"),
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
    ("lexicon-phrases-string", {},
     {"c.jsonl": b'{"doc_id": "d1", "text": "water"}\n',
      "lex.json": b'{"A": "water", "B": ["b"], "C": ["c"]}'},
     ["score", "--scorer", "keyword", "--corpus", "c.jsonl", "--lexicon", "lex.json"],
     "'A' must be an array of strings"),
    ("perf-weights-expert-outside-labels", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,Z\n"}, ["fuse", "--weights", "perf"],
     "document 'd1' has expert label 'Z' outside the label set"),
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
    ("fused-wide-row-before-a-bad-byte", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n",
      "out/fused.csv": FUSED_WIDE + b"s+t:wrc,d1,A,false,A,A|B|\xff\n"},
     ["evaluate"], "fused.csv:3: expected 6 columns, found 7"),
    ("fused-wide-row-400-rows-before-a-bad-byte", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_WIDE
      + b"".join(b"s+t:m%04d,d1,A,false,A,A|B|C\n" % m for m in range(400))
      + b"s+t:wrc,d1,A,false,A,A|B|\xff\n"},
     ["evaluate"], "fused.csv:3: expected 6 columns, found 7"),
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
    ("strategies-unknown", {"strategies": ["zz"]}, {}, ["fuse"],
     "unknown strategies ['zz']; expected a subset of ('asc', 'arc', 'wsc', 'wrc')"),
    ("strategies-empty", {"strategies": []}, {}, ["fuse"],
     "at least one strategy is required"),
    # an empty flag is taken as given, not replaced by the config's value
    ("strategies-flag-empty", {}, {}, ["fuse", "--strategies", ""],
     "at least one strategy is required"),
    # "" names no directory, so the config's out_dir does not stand in
    ("out-flag-empty", {}, {}, ["fuse", "--out", ""],
     "--out must name a directory, got an empty string"),
    ("endpoint-flag-empty", {"generation": {"endpoint_url": "http://127.0.0.1:9/gen"}},
     {"prompts.csv": b"prompt_id,label,publication_type,source,prompt_text\n"
                     b"p00001,A,t,s,A by s\n"},
     ["generate", "--prompts", "prompts.csv", "--endpoint", ""],
     "generate requires --endpoint or a generation.endpoint_url config"),
    ("weights-unknown", {"weights": "equal"}, {}, ["fuse"],
     "unknown weight source 'equal'; expected one of ('ds', 'perf')"),
    ("min-subset-one", {"min_subset": 1}, {}, ["fuse"],
     "minimum subset size is 2, got 1"),
    ("rsc-tables-share-a-file-name", {},
     {"s.csv": DOC_SPACE_SCORES, "t.csv": DOC_SPACE_SCORES},
     ["diversity", "--doc", "d 1", "--doc", "d_1"],
     "documents 'd 1' and 'd_1' would both be written to rsc_d_1.csv"),
    ("generate-max-concurrency-zero", {},
     {"prompts.csv": b"prompt_id,label,publication_type,source,prompt_text\n"
                     b"p00001,A,t,s,A by s\n"},
     ["generate", "--prompts", "prompts.csv", "--endpoint", "http://127.0.0.1:9/gen",
      "--max-concurrency", "0"],
     "max_concurrency must be at least 1"),
]


@pytest.mark.parametrize(
    "fields, files, command, message", [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_input_exits_1_with_one_error_line(
    run_python, tmp_path, fields, files, command, message
):
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
    result = run_python("-m", "cfakit.cli", *command, "--config", "config.json",
                        cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert message in lines[0]


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
    # "" is the current directory, which cannot be read as a file
    _fused_workspace(tmp_path, FUSED_HEADER + b"s+t:asc,d1,B,false,B,B|C|A\n")
    command = ("-m", "cfakit.cli", "evaluate", "--config", "config.json")
    assert run_python(*command, cwd=tmp_path).returncode == 0
    result = run_python(*command, "--fused", "", cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read "), result.stderr


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
def test_fused_fault_past_the_first_block_is_named_by_line(run_python, tmp_path, tail, message):
    _fused_workspace(tmp_path, FUSED_PADDING + tail)
    result = run_python("-m", "cfakit.cli", "evaluate", "--config", "config.json", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stderr == f"error: {message}\n"


def test_needless_quotes_past_the_first_block_leave_the_report_alone(tmp_path):
    _fused_workspace(tmp_path, FUSED_PADDING + b"s+t:asc,d1,A,false,A,A|B|C\n")
    assert _run("evaluate", "--config", tmp_path / "config.json") == 0
    report = (tmp_path / "out" / "report.json").read_bytes()
    (tmp_path / "out" / "fused.csv").write_bytes(
        FUSED_PADDING + b's+t:asc,d1,"A",false,A,A|B|C\n')
    assert _run("evaluate", "--config", tmp_path / "config.json") == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == report


@pytest.mark.parametrize("command", [
    ["corpus-stats", "--corpus", "c.jsonl"],
    ["generate", "--prompts", "prompts.csv", "--endpoint", "http://127.0.0.1:9/gen"],
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
    label_set = LabelSet(("A", "B", "C"))
    order, tied = np.array([[0, 1, 2], [2, 0, 1]]), np.array([1, 2])

    def failing_kernel():
        yield "s+t:arc", order, tied
        raise RuntimeError("the kernel failed")

    out_of_order = [("s+t:asc", order, tied), ("s+t:arc", order, tied)]
    for grid, error in ((failing_kernel(), RuntimeError), (out_of_order, ValidationError)):
        # the first model reached the temporary file before the error
        with pytest.raises(error):
            write_fused_file(target, label_set, ["d1", "d2"], grid)
        assert target.read_bytes() == b"the previous run's grid\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fused.csv"]


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
        models = write_fused_file(path, label_set, doc_ids, (
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

"""End-to-end tests for the command line interface."""

from __future__ import annotations

import csv
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from cfakit import LabelSet
from cfakit.cli import main
from cfakit.fileio import atomic_write_text, load_score_file, write_score_file

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
    for name in ("scores_keyword.csv", "scores_tfidf.csv"):
        table = load_score_file(ws / "out" / name, label_set)
        assert set(table) == {d for d, _, _ in CORPUS}
    # keyword scores are reproducible from the corpus and lexicon
    from cfakit import KeywordLexicon, keyword_scorer

    lexicon = KeywordLexicon.from_dict(LEXICON)
    table = load_score_file(ws / "out" / "scores_keyword.csv", label_set)
    for doc_id, text, _ in CORPUS:
        expected = keyword_scorer(text, lexicon)
        for label in LABELS:
            assert table[doc_id][label] == expected[label]  # bit-exact


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
        thread.join()
    assert code == 0
    lines = (ws / "out" / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    assert record["text"] == "text for: SDG4 by s"
    assert record["label"] == "SDG4"


def test_fuse_builds_no_fused_ranking(workspace, monkeypatch):
    from cfakit.combine import FusedRanking

    built = []
    init = FusedRanking.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FusedRanking, "__init__", counted)
    _score_both(workspace)
    assert _run("fuse", "--config", workspace / "config.json") == 0
    assert _run("fuse", "--config", workspace / "config.json", "--weights", "perf") == 0
    assert len((workspace / "out" / "fused.csv").read_text().splitlines()) == 1 + 4 * 8
    assert built == []


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
        "d1": {"L1": 0.1 + 0.2, "L2": 1.0 / 3.0, "L3": 1e-17},
        "d2": {"L1": 1234567.891011, "L2": 2.220446049250313e-16, "L3": 0.0},
    }
    path = tmp_path / "scores.csv"
    write_score_file(path, scores, label_set)
    loaded = load_score_file(path, label_set)
    assert loaded == scores  # bit-exact round trip


def test_load_score_file_rejects_non_finite(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("doc_id,label,score\nd1,L1,nan\n")
    from cfakit import ValidationError

    with pytest.raises(ValidationError, match="not finite"):
        load_score_file(path)


ABC_SCORES = "doc_id,label,score\nd1,A,0.1\nd1,B,0.7\nd1,C,0.4\n"
FUSED_HEADER = b"combo_id,doc_id,top1,tie_at_top,tied_top,ranking\n"
DOC_SPACE_SCORES = b"doc_id,label,score\n" + b"".join(
    b"%s,%s,0.%d\n" % (doc, label, i)
    for doc in (b"d 1", b"d_1") for i, label in enumerate((b"A", b"B", b"C"), start=1)
)

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
    ("fused-duplicate-row", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,false,A,A|B|C\ns+t:asc,d1,B,false,B,B|A|C\n"},
     ["evaluate"], "fused.csv:3: duplicate row for 's+t:asc' / 'd1'"),
    ("fused-not-utf8-on-a-later-line", {"expert_labels": "e.csv"},
     {"e.csv": b"doc_id,label\nd1,A\n", "out/fused.csv": FUSED_HEADER
      + b"".join(b"s+t:m%d,d1,A,false,A,A|B|C\n" % i for i in range(500))
      + b"s+t:asc,d1,A,false,A,A|B|C\xff\n"},
     ["evaluate"], "fused.csv: not valid UTF-8 (line 502)"),
    ("fused-missing-document", {"expert_labels": "e.csv"},
     {"s.csv": ABC_SCORES.encode() + b"d2,A,0.1\nd2,B,0.2\nd2,C,0.3\n",
      "t.csv": ABC_SCORES.encode() + b"d2,A,0.1\nd2,B,0.2\nd2,C,0.3\n",
      "e.csv": b"doc_id,label\nd1,A\nd2,B\n", "out/fused.csv": FUSED_HEADER
      + b"s+t:asc,d1,A,false,A,A|B|C\n"},
     ["evaluate"], "combo 's+t:asc': missing predictions for documents ['d2']"),
    ("tie-policy-unknown", {"tie_policy": "dense"}, {}, ["fuse"],
     "unknown tie policy 'dense'; expected one of ('fractional', 'ordinal')"),
    ("tie-mode-unknown", {"tie_mode": "loose"}, {}, ["fuse"],
     "unknown tie mode 'loose'; expected one of ('strict', 'lenient')"),
    ("strategies-unknown", {"strategies": ["zz"]}, {}, ["fuse"],
     "unknown strategies ['zz']; expected a subset of ('asc', 'arc', 'wsc', 'wrc')"),
    ("strategies-empty", {"strategies": []}, {}, ["fuse"],
     "at least one strategy is required"),
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

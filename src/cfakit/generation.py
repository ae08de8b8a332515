"""HTTP client that turns a prompt matrix into a labeled text corpus.

The endpoint contract is a single POST of {"prompt": ...} answered with
{"text": ...}.  Failures are recorded per prompt and never abort the
run, and reruns skip prompts whose text is already on disk, so a large
generation job can resume after interruptions.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

from .corpus import Prompt
from .errors import ValidationError
from .fileio import _read_text, atomic_write_text

CORPUS_FILE = "corpus.jsonl"
ERRORS_FILE = "errors.jsonl"


@dataclass(frozen=True)
class GenerationConfig:
    endpoint_url: str
    auth_token: str | None = None
    timeout: float = 30.0
    max_concurrency: int = 4

    def __post_init__(self) -> None:
        if not self.endpoint_url:
            raise ValidationError("generation endpoint URL is required")
        if self.max_concurrency < 1:
            raise ValidationError("max_concurrency must be at least 1")


@dataclass(frozen=True)
class GenerationOutcome:
    """What one run produced: all stored records, new errors, skip count."""

    records: tuple[dict, ...]
    errors: tuple[dict, ...]
    fetched: int
    skipped: int


def _fetch(prompt: Prompt, config: GenerationConfig) -> str:
    import requests  # only generation talks HTTP; keep `import cfakit` light

    headers = {}
    if config.auth_token:
        headers["Authorization"] = f"Bearer {config.auth_token}"
    response = requests.post(
        config.endpoint_url,
        json={"prompt": prompt.text},
        headers=headers,
        timeout=config.timeout,
    )
    response.raise_for_status()
    try:
        payload = response.json()
    except ValueError as exc:
        raise RuntimeError(f"response is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "text" not in payload:
        raise RuntimeError("response JSON lacks a 'text' field")
    text = payload["text"]
    if not isinstance(text, str):
        raise RuntimeError("response 'text' field is not a string")
    return text


def _load_existing(path: Path) -> dict[str, dict]:
    if not path.exists():
        return {}
    records: dict[str, dict] = {}
    # split at newlines only: str.splitlines() also splits at U+2028 and
    # other separators that JSON strings may hold unescaped
    # bytes after the last newline are an append cut short by a crash,
    # perhaps inside a character; their prompt is fetched again
    lines = _read_text(path, whole_lines=True).split("\n")
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{line_no}: malformed JSON: {exc}") from exc
        if "prompt_id" not in record:
            raise ValidationError(f"{path}:{line_no}: record lacks prompt_id")
        records[record["prompt_id"]] = record
    return records


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def _write_jsonl(path: Path, records: Sequence[dict]) -> None:
    atomic_write_text(path, "".join(map(_json_line, records)))


def generate_corpus(
    prompts: Sequence[Prompt], config: GenerationConfig, out_dir: Path | str
) -> GenerationOutcome:
    """Fetch text for every prompt not already stored under out_dir.

    Fetches run on a bounded thread pool.  Each fetched record is appended
    to the corpus file as it arrives, so an interrupted run keeps what it
    fetched; at the end the corpus and error log are rewritten sorted by
    prompt_id, so the output is deterministic for a given set of responses.
    """
    prompts = list(prompts)
    ids = [p.prompt_id for p in prompts]
    if len(set(ids)) != len(ids):
        raise ValidationError("prompt ids must be unique")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / CORPUS_FILE
    existing = _load_existing(corpus_path)

    todo = [p for p in prompts if p.prompt_id not in existing]
    skipped = len(prompts) - len(todo)

    errors: list[dict] = []
    fetched = 0
    if todo:
        # appends must start on a fresh line, not on a torn one
        _write_jsonl(corpus_path, [existing[k] for k in sorted(existing)])
        pool = ThreadPoolExecutor(max_workers=config.max_concurrency)
        try:
            with corpus_path.open("a", encoding="utf-8", newline="") as handle:
                futures = {pool.submit(_try_fetch, p, config): p for p in todo}
                for future in as_completed(futures):
                    prompt = futures[future]
                    text, error = future.result()
                    if error is not None:
                        errors.append({"prompt_id": prompt.prompt_id, "error": error})
                        continue
                    record = {
                        "doc_id": prompt.prompt_id,
                        "prompt_id": prompt.prompt_id,
                        "label": prompt.label,
                        "publication_type": prompt.publication_type,
                        "source": prompt.source,
                        "text": text,
                    }
                    handle.write(_json_line(record))
                    handle.flush()
                    existing[prompt.prompt_id] = record
                    fetched += 1
        finally:
            # an interrupted run stops at once instead of fetching the rest
            pool.shutdown(cancel_futures=True)

    records = [existing[k] for k in sorted(existing)]
    _write_jsonl(corpus_path, records)
    errors.sort(key=lambda e: e["prompt_id"])
    _write_jsonl(out / ERRORS_FILE, errors)
    return GenerationOutcome(
        records=tuple(records),
        errors=tuple(errors),
        fetched=fetched,
        skipped=skipped,
    )


def _try_fetch(prompt: Prompt, config: GenerationConfig) -> tuple[str | None, str | None]:
    import requests

    try:
        return _fetch(prompt, config), None
    except (requests.RequestException, RuntimeError) as exc:
        return None, str(exc)

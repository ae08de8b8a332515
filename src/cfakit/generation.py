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
from pathlib import Path
from typing import NamedTuple

from .corpus import Prompt
from .errors import ValidationError
from .fileio import _JSON_KINDS, _field, _json_lines, _parse_json, _unwritable, atomic_write_text
from .settings import _ids, _sequence

CORPUS_FILE = "corpus.jsonl"
ERRORS_FILE = "errors.jsonl"


class GenerationConfig:
    def __init__(
        self,
        endpoint_url: str,
        auth_token: str | None = None,
        timeout: float = 30.0,
        max_concurrency: int = 4,
    ) -> None:
        if not endpoint_url:
            raise ValidationError("generation.endpoint_url is required")
        if not _JSON_KINDS["an integer"](max_concurrency) or max_concurrency < 1:
            raise ValidationError("max_concurrency must be an integer of at least 1")
        if not _JSON_KINDS["a finite real"](timeout) or timeout <= 0:
            raise ValidationError("timeout must be a finite number of seconds above 0")
        self.endpoint_url = endpoint_url
        self.auth_token = auth_token
        self.timeout = timeout
        self.max_concurrency = max_concurrency


class GenerationOutcome(NamedTuple):
    """What one run produced: all stored records, new errors, skip count."""

    records: tuple[dict, ...]
    errors: tuple[dict, ...]
    fetched: int
    skipped: int


def _fetch(prompt: Prompt, config: GenerationConfig) -> str:
    from urllib.request import Request, urlopen  # only generate talks HTTP

    headers = {"Content-Type": "application/json"}
    if config.auth_token:
        headers["Authorization"] = f"Bearer {config.auth_token}"
    body = json.dumps({"prompt": prompt.text}).encode("utf-8")
    request = Request(config.endpoint_url, data=body, headers=headers, method="POST")
    # urlopen raises HTTPError for a 4xx or 5xx status
    with urlopen(request, timeout=config.timeout) as response:
        data = response.read()
    try:
        payload = _parse_json(data, "response")
    except ValidationError as exc:  # recorded with the decoder's own message
        raise RuntimeError(f"response is not JSON: {exc.__cause__}") from exc
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
    # bytes after the last newline are an append cut short by a crash,
    # perhaps inside a character; their prompt is fetched again
    for where, record in _json_lines(path, whole_lines=True):
        if not isinstance(record, dict) or "prompt_id" not in record:
            raise ValidationError(f"{where}: record must be an object with a prompt_id")
        prompt_id = _field(where, record, "prompt_id", "a string", None)
        if prompt_id in records:  # the rewrite would keep only one of them
            raise ValidationError(f"{where}: duplicate prompt id {prompt_id!r}")
        records[prompt_id] = record
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
    prompts = list(_sequence(prompts, "prompts"))
    _ids((p.prompt_id for p in prompts), "prompt id")
    # the writers make out_dir, each naming its file when they cannot
    out = Path(out_dir)
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
        except OSError as exc:  # the fetches record their own
            raise _unwritable(corpus_path, exc) from exc
        finally:
            # an interrupted run stops at once instead of fetching the rest
            pool.shutdown(cancel_futures=True)

    records = [existing[k] for k in sorted(existing)]
    _write_jsonl(corpus_path, records)
    errors.sort(key=lambda e: e["prompt_id"])
    _write_jsonl(out / ERRORS_FILE, errors)
    return GenerationOutcome(tuple(records), tuple(errors), fetched, skipped)


def _try_fetch(prompt: Prompt, config: GenerationConfig) -> tuple[str | None, str | None]:
    from http.client import HTTPException

    try:
        return _fetch(prompt, config), None
    # OSError covers HTTPError, URLError and a timeout; ValueError an
    # endpoint URL that urllib cannot use
    except (OSError, HTTPException, ValueError, RuntimeError) as exc:
        return None, str(exc)

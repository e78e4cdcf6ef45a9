"""PubMed abstract retrieval via the NCBI E-utilities efetch endpoint.

Fetches title/abstract pairs for PMID lists in batches, respecting the
published rate limits (3 requests per second anonymous, 10 with an API
key).  The HTTP transport, clock, and sleep function are injectable so
tests never touch the network.
"""

from __future__ import annotations

import threading
import time
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable

from .corpus import ReviewDataset, StudyRecord
from .gateway import DEFAULT_TIMEOUT, MAX_ATTEMPTS

EFETCH_URL = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils/efetch.fcgi"
MAX_IDS_PER_REQUEST = 200
RATE_LIMIT_ANON = 3  # requests per second without an API key
RATE_LIMIT_KEYED = 10
RETRY_STATUS = {429, 500, 502, 503, 504}


class PubMedError(RuntimeError):
    """Raised when a fetch fails after retries or returns unusable XML."""


class UnresolvedPmidWarning(UserWarning):
    """Emitted when requested PMIDs are absent from the response."""


@dataclass
class PubMedClient:
    """Batched efetch client with token-bucket style pacing.

    ``transport`` takes (url, params, timeout) and returns an object with
    ``status_code`` and ``text``; the default wraps ``requests.get``.
    """

    api_key: str | None = None
    transport: Callable = None
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _last_request: float = field(default=float("-inf"), repr=False)

    def __post_init__(self):
        if self.transport is None:
            import requests

            self.transport = lambda url, params, timeout: requests.get(
                url, params=params, timeout=timeout
            )

    @property
    def min_interval(self) -> float:
        limit = RATE_LIMIT_KEYED if self.api_key else RATE_LIMIT_ANON
        return 1.0 / limit

    def _pace(self) -> None:
        # Serialized so concurrent callers cannot exceed the shared budget.
        with self._lock:
            now = self.clock()
            wait = self._last_request + self.min_interval - now
            if wait > 0:
                self.sleep(wait)
                now = self.clock()
            self._last_request = now

    def _request(self, ids: list[str]) -> str:
        import requests

        params = {
            "db": "pubmed",
            "id": ",".join(ids),
            "rettype": "abstract",
            "retmode": "xml",
        }
        if self.api_key:
            params["api_key"] = self.api_key
        last_error = None
        for attempt in range(MAX_ATTEMPTS):
            self._pace()
            try:
                resp = self.transport(EFETCH_URL, params, DEFAULT_TIMEOUT)
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if resp.status_code == 200:
                    return resp.text
                last_error = f"HTTP {resp.status_code}"
                if resp.status_code not in RETRY_STATUS:
                    break
            if attempt + 1 < MAX_ATTEMPTS:
                self.sleep(2.0**attempt)
        raise PubMedError(f"efetch failed after {MAX_ATTEMPTS} attempts: {last_error}")

    def fetch(self, pmids: list[str], review_id: str = "pubmed") -> ReviewDataset:
        """Fetch records for ``pmids``, warning about any that don't resolve.

        Returned records follow the order of the request.  PMIDs missing
        from the response (retracted, malformed, nonexistent) are skipped
        with an UnresolvedPmidWarning naming them.
        """
        ordered = [str(p).strip() for p in pmids if str(p).strip()]
        found: dict[str, StudyRecord] = {}
        for start in range(0, len(ordered), MAX_IDS_PER_REQUEST):
            chunk = ordered[start : start + MAX_IDS_PER_REQUEST]
            xml_text = self._request(chunk)
            for rec in _parse_efetch_xml(xml_text, review_id):
                found.setdefault(rec.id, rec)
        missing = [p for p in ordered if p not in found]
        if missing:
            warnings.warn(
                f"{len(missing)} PMID(s) unresolved: {', '.join(missing)}",
                UnresolvedPmidWarning,
                stacklevel=2,
            )
        records = [found[p] for p in ordered if p in found]
        return ReviewDataset(review_id, records)


def _parse_efetch_xml(xml_text: str, review_id: str) -> list[StudyRecord]:
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise PubMedError(f"unparseable efetch XML: {exc}") from None
    records = []
    for article in root.iter("PubmedArticle"):
        pmid_el = article.find(".//PMID")
        title_el = article.find(".//ArticleTitle")
        if pmid_el is None or not (pmid_el.text or "").strip():
            continue
        pmid = pmid_el.text.strip()
        title = _element_text(title_el)
        # Abstracts may be split into labeled sections; join them in order.
        parts = [_element_text(el) for el in article.findall(".//AbstractText")]
        abstract = " ".join(p for p in parts if p)
        records.append(
            StudyRecord(
                id=pmid, title=title, abstract=abstract, review_id=review_id
            )
        )
    return records


def _element_text(el) -> str:
    if el is None:
        return ""
    return "".join(el.itertext()).strip()

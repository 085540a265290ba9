"""PageSplitter: the 1-document → N-ordered-page-fragments fan-out stage.

Parity: convertPdfToImages (node-zerox/src/utils/file.ts:153-207) /
convert_pdf_to_images (py_zerox/pyzerox/processor/pdf.py:14-33) — the
reference's widest stage, one doc → N page images. Here one payload row →
N fragment rows carrying (url, pid, page_index, kind, fragment bytes).

Runs as a stateless task UDF: one instance, built on the driver, holds
only the page selection and error mode. Page selection (select_pages,
py_zerox/pyzerox/processor/utils.py:48-107 / index.ts:197-205) is applied
here as a bounds filter that preserves ORIGINAL 1-indexed page numbers
(index.ts:261-273; zerox.py:182-194).

Error semantics (errorMode, node types.ts:172-175, index.ts:338-352):
- IGNORE: an unsplittable payload emits ONE row with kind='error' (the
  downstream scorer turns it into a status=ERROR page row); the block is
  never poisoned.
- THROW: raise, failing the job.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from zerox_ray.functions import htmlx, pdfx, sheetx

#: docs with more estimated pages than this are walked in page ranges of
#: this many pages (ZeroxConfig default; None disables). It bounds the
#: fragments alive per split/score step at ~25× the web-corpus average
#: while never triggering on typical documents — a threshold near the
#: corpus MEAN makes chunk_giant_docs copy nearly every batch for no
#: gain (measured ~10% of chain remote wall at threshold 8 on the
#: 2.5-page-mean bench corpus).
GIANT_PAGE_THRESHOLD = 64


def heic_to_jpeg(payload: bytes) -> bytes:
    """M4 parity (HEIC→JPEG before processing, reference utils/image.ts):
    pillow-heif + PIL when the cluster ships them (import-try seam like
    openpyxl/pypdf); else a clearly-marked NotImplementedError, which the
    splitter turns into an ERROR row under errorMode IGNORE."""
    try:
        import pillow_heif
        from PIL import Image
    except ImportError as exc:  # pragma: no cover - runtime has neither
        raise NotImplementedError(
            "HEIC conversion requires pillow-heif/PIL, not available in "
            "this runtime"
        ) from exc
    import io

    pillow_heif.register_heif_opener()
    img = Image.open(io.BytesIO(payload)).convert("RGB")
    buf = io.BytesIO()
    img.save(buf, format="JPEG")
    return buf.getvalue()


def chunk_giant_docs(batch: pa.Table, chunk_pages: int) -> pa.Table:
    """page_count-aware page ranges (the M8 consumer; the north rule
    names it explicitly): a doc whose estimated ``page_count`` exceeds
    ``chunk_pages`` is replicated into ⌈page_count/chunk_pages⌉ work-item
    rows, each carrying a [first_page, last_page] range the splitter
    honors. Per-ROW split/score cost is then bounded by ~chunk_pages
    regardless of document size. The ranges do not leave their doc's
    task: ``DocumentOCR`` walks a batch's ranges a bounded number per
    step, so the threshold bounds the fragments alive per step, not how
    a doc spreads over tasks.

    last_page = -1 marks the final chunk open-ended: page_count is an
    ESTIMATE (cheap payload markers, classify.py); pages beyond it must
    not be dropped. Payload bytes are duplicated per extra chunk —
    bounded by the giant-doc fraction, the standard trade for skew-free
    fan-out. Chunk rows stay ADJACENT per url (np.repeat), preserving
    the url-contiguity invariant the kernel's page join relies on."""
    counts = np.maximum(batch["page_count"].to_numpy(), 1)
    n_chunks = np.maximum(1, -(-counts // chunk_pages))
    if not (n_chunks > 1).any():
        # fast path (the overwhelmingly common batch): nothing to chunk →
        # append two constant columns zero-copy instead of paying
        # batch.take()'s full payload copy
        n = batch.num_rows
        return batch.append_column(
            "first_page", pa.array(np.ones(n, dtype=np.int64))
        ).append_column("last_page", pa.array(np.full(n, -1, dtype=np.int64)))
    idx = np.repeat(np.arange(len(counts), dtype=np.int64), n_chunks)
    starts = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
    ordinal = np.arange(len(idx), dtype=np.int64) - np.repeat(starts, n_chunks)
    first = ordinal * chunk_pages + 1
    last = np.where(ordinal == n_chunks[idx] - 1, -1, (ordinal + 1) * chunk_pages)
    out = batch.take(pa.array(idx))
    return out.append_column(
        "first_page", pa.array(first, pa.int64())
    ).append_column("last_page", pa.array(last, pa.int64()))

FRAGMENT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("pid", pa.int64()),
        ("page_index", pa.int64()),
        ("kind", pa.string()),
        ("fragment", pa.binary()),
    ]
)


class PageSplitter:
    """Task flat-map UDF: payload rows → page-fragment rows."""

    def __init__(
        self,
        select_pages: list[int] | None = None,
        error_mode: str = "IGNORE",
    ):
        self.select = set(select_pages) if select_pages else None
        self.error_mode = error_mode

    def _split_one(
        self, payload: bytes, kind: str, max_page: int | None = None
    ) -> tuple[str, list[bytes]]:
        if kind == "pdf":
            return "pdf", pdfx.split_pdf_pages(payload, max_page)
        if kind == "html":
            return "html", htmlx.split_html_pages(payload, max_page)
        if kind in ("sheet", "xlsx"):
            # structured data: sheet = page (file.ts:311-329); fragments
            # are already rendered sheet HTML, scored as pass-through
            return "sheet", sheetx.split_sheet_pages(payload)
        if kind == "heic":
            # M4 (HEIC→JPEG convert before processing, reference
            # utils/image.ts): single-image payload → one page fragment;
            # a vision-capable provider scores it, the deterministic
            # model reports the kind as unsupported (honest error row)
            return "image", [heic_to_jpeg(payload)]
        if kind == "cfb":
            # M2→M3 routing (checkIsCFBFile → convertFileToPdf → the pdf
            # branch, reference index.ts:214-231): convert, then split
            # like any PDF; without libreoffice the convert seam raises
            # and this doc becomes an ERROR row, never a poisoned block
            return "pdf", pdfx.split_pdf_pages(convert_office_payload(payload))
        raise ValueError(f"unsupported or corrupt payload (kind={kind})")

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, pids, idxs, kinds, frags = [], [], [], [], []
        n = batch.num_rows
        # optional giant-doc chunk ranges (chunk_giant_docs): absent →
        # every row covers all pages
        names = batch.column_names
        firsts = (
            batch["first_page"].to_pylist() if "first_page" in names else [1] * n
        )
        lasts = (
            batch["last_page"].to_pylist() if "last_page" in names else [-1] * n
        )
        for url, pid, payload, kind, first, last in zip(
            batch["url"].to_pylist(),
            batch["pid"].to_pylist(),
            batch["html"].to_pylist(),
            batch["kind"].to_pylist(),
            firsts,
            lasts,
        ):
            # prefix bound: a giant-doc chunk row only needs pages up to
            # its ``last`` (else chunking costs n_chunks × O(whole doc));
            # a select_pages run only needs pages up to max(select)
            if last != -1:
                max_page = last
            elif self.select is not None:
                max_page = max(self.select)
            else:
                max_page = None
            try:
                out_kind, fragments = self._split_one(payload, kind, max_page)
            except Exception as exc:  # noqa: BLE001 — error-row containment
                if self.error_mode == "THROW":
                    raise
                # only the chunk covering page 1 emits the error row —
                # replicated chunks must not duplicate it. The error row
                # is NOT a page: select_pages must not filter it away, or
                # a corrupt doc under select=[2] would vanish silently
                # (neither SUCCESS nor ERROR anywhere downstream)
                if first <= 1:
                    urls.append(url)
                    pids.append(pid)
                    idxs.append(1)
                    kinds.append("error")
                    frags.append(str(exc).encode()[:256])
                continue
            for i, frag in enumerate(fragments, 1):
                if i < first or (last != -1 and i > last):
                    continue
                if self.select is not None and i not in self.select:
                    continue
                urls.append(url)
                pids.append(pid)
                idxs.append(i)
                kinds.append(out_kind)
                frags.append(frag)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "pid": pa.array(pids, pa.int64()),
                "page_index": pa.array(idxs, pa.int64()),
                "kind": pa.array(kinds, pa.string()),
                "fragment": pa.array(frags, pa.binary()),
            }
        )


def convert_office_payload(payload: bytes) -> bytes:
    """M3 (convertFileToPdf, node-zerox/src/utils/file.ts:129-150):
    legacy-Office (CFB) / docx payload → PDF bytes via headless
    libreoffice when the cluster ships it (the same import-try seam shape
    as openpyxl/pypdf/pillow-heif); else a clearly-marked
    NotImplementedError, which the splitter turns into an ERROR row under
    errorMode IGNORE."""
    import shutil

    soffice = shutil.which("soffice")
    if soffice is None:  # pragma: no cover - runtime has no libreoffice
        raise NotImplementedError(
            "office→pdf conversion requires libreoffice (soffice), which is "
            "not available in this runtime"
        )
    import os
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(prefix="zx-office-") as td:
        src = os.path.join(td, "doc.doc")
        with open(src, "wb") as fh:
            fh.write(payload)
        subprocess.run(
            [soffice, "--headless", "--convert-to", "pdf", "--outdir", td, src],
            check=True,
            capture_output=True,
            timeout=120,
        )
        with open(os.path.join(td, "doc.pdf"), "rb") as fh:
            return fh.read()


class PdfRasterize:
    """Task rasterizer UDF (M5/M6 vision path, convertPdfToImages /
    convertPdfWithPoppler, file.ts:153-207,279-308): PDF payload rows →
    one row per page image, feeding the I1–I4 image chain (MediaCleanup
    in pipelines/media.py consumes the emitted ``image`` payloads).

    pdftoppm is which-probed once per batch, on the worker; per-row
    failures (no poppler, corrupt PDF) become status='ERROR' rows with an
    empty image under errorMode IGNORE (index.ts:338-352) and raise under
    THROW.
    Output: (url, page_index, image: binary, status). Batches should be
    small — each page image at density 300 is MBs."""

    def __init__(
        self,
        density: int = 300,
        height: int = 2048,
        fmt: str = "png",
        error_mode: str = "IGNORE",
    ):
        self.density = density
        self.height = height
        self.fmt = fmt
        self.error_mode = error_mode

    @property
    def pdftoppm(self) -> str | None:
        import shutil

        return shutil.which("pdftoppm")

    def __call__(self, batch: pa.Table) -> pa.Table:
        from zerox_ray.functions.pdfx import rasterize_pdf_pages

        pdftoppm = self.pdftoppm
        urls: list[str] = []
        idxs: list[int] = []
        images: list[bytes] = []
        status: list[str] = []
        for url, payload in zip(
            batch["url"].to_pylist(), batch["html"].to_pylist()
        ):
            try:
                pages = rasterize_pdf_pages(
                    bytes(payload),
                    density=self.density,
                    height=self.height,
                    fmt=self.fmt,
                    pdftoppm=pdftoppm,
                )
            except Exception:
                if self.error_mode == "THROW":
                    raise
                urls.append(url)
                idxs.append(0)
                images.append(b"")
                status.append("ERROR")
                continue
            for i, img in enumerate(pages):
                urls.append(url)
                idxs.append(i)
                images.append(img)
                status.append("OK")
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "page_index": pa.array(idxs, pa.int64()),
                "image": pa.array(images, pa.binary()),
                "status": pa.array(status, pa.string()),
            }
        )


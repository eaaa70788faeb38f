"""Family-file parsing, moments CSV persistence, and run configuration."""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import stat
import sys
import threading
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .bias import residual_exponents
from .corpus import builtin_corpus
from .discovery import MAX_EXPONENTS, exponents_in_range
from .families import (DEFAULT_R_MAX, R_MAX, CurveFamily, IntPolynomial, MomentRecord,
                       is_nondegenerate)
from .modular import _MAX_MODULUS, nth_prime_bound, prime_indices, sieve_primes


class FamilyParseError(ValueError):
    """Malformed family file."""


class ValidationError(ValueError):
    """Invalid run configuration or data file."""


_FAMILY_KEYS = ("a1", "a2", "a3", "a4", "a6")
_ALLOWED_KEYS = {"name", "expected_rank", *_FAMILY_KEYS}


def _parse_coeffs(where: str, key: str, raw) -> IntPolynomial:
    if not isinstance(raw, list):
        raise FamilyParseError("%s: field %s must be a list of integer strings" % (where, key))
    coeffs = []
    for i, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(item, (str, int)):
            raise FamilyParseError("%s: %s[%d] must be a decimal integer string" % (where, key, i))
        try:
            coeffs.append(int(item))
        except ValueError:
            raise FamilyParseError(
                "%s: %s[%d] is not a decimal integer: %r" % (where, key, i, item)
            ) from None
    return IntPolynomial(tuple(coeffs))


def parse_family_file(path) -> list[CurveFamily]:
    """Parse a JSON family file: a list of objects with name, a1..a6, expected_rank.

    Coefficient lists hold decimal integer strings, ascending powers of t;
    bare integers are also accepted. An empty file yields an empty list.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        return []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyParseError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from None
    if not isinstance(data, list):
        raise FamilyParseError("%s: top level must be a list of family objects" % (path,))
    out: list[CurveFamily] = []
    seen: set[str] = set()
    for i, entry in enumerate(data):
        where = "%s: family #%d" % (path, i + 1)
        if not isinstance(entry, dict):
            raise FamilyParseError("%s: must be an object" % (where,))
        unknown = set(entry) - _ALLOWED_KEYS
        if unknown:
            raise FamilyParseError("%s: unknown field(s) %s" % (where, ", ".join(sorted(unknown))))
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise FamilyParseError("%s: missing or empty name" % (where,))
        where = "%s (%r)" % (where, name)
        if name in seen:
            raise FamilyParseError("%s: duplicate family name" % (where,))
        seen.add(name)
        missing = [k for k in _FAMILY_KEYS if k not in entry]
        if missing:
            raise FamilyParseError("%s: missing field(s) %s" % (where, ", ".join(missing)))
        polys = {k: _parse_coeffs(where, k, entry[k]) for k in _FAMILY_KEYS}
        rank = entry.get("expected_rank")
        if rank is not None and (isinstance(rank, bool) or not isinstance(rank, int) or rank < 0):
            raise FamilyParseError("%s: expected_rank must be a nonnegative integer" % (where,))
        fam = CurveFamily(name, polys["a1"], polys["a2"], polys["a3"], polys["a4"], polys["a6"], rank)
        if not is_nondegenerate(fam):
            raise FamilyParseError("%s: discriminant is identically zero" % (where,))
        out.append(fam)
    return out


def family_file_text(families: list[CurveFamily]) -> str:
    """Serialize families in the family-file format (coefficients as strings)."""
    data = []
    for fam in families:
        entry = {
            "name": fam.name,
            "a1": [str(c) for c in fam.a1.coeffs],
            "a2": [str(c) for c in fam.a2.coeffs],
            "a3": [str(c) for c in fam.a3.coeffs],
            "a4": [str(c) for c in fam.a4.coeffs],
            "a6": [str(c) for c in fam.a6.coeffs],
        }
        if fam.expected_rank is not None:
            entry["expected_rank"] = fam.expected_rank
        data.append(entry)
    return json.dumps(data, indent=2) + "\n"


class RunConfig(NamedTuple):
    families_path: str | None = None  # None selects the built-in corpus
    start: int = 3  # 1-based prime index; index 1 is p=2, default skips 2 and 3
    end: int = 302
    r_max: int = DEFAULT_R_MAX
    block_size: int = 50
    modulus_exponents: tuple[int, int, int] = MAX_EXPONENTS
    exponent2: Fraction = residual_exponents(2)[1]  # e_2 - 1/2, as in residual_series
    out_dir: str = "out"
    workers: int = 1
    resume: bool = False

    def validate(self) -> None:
        if self.start < 3:
            raise ValidationError("start index must be >= 3 (p = 5), got %r" % (self.start,))
        if self.end < self.start:
            raise ValidationError("end index %r below start %r" % (self.end, self.start))
        n = self.end  # Dusart: p_n >= n (ln n + ln ln n - 1) for n >= 2; no sieve runs first
        if n * (math.log(n) + math.log(math.log(n)) - 1) > _MAX_MODULUS:
            raise ValidationError("end index %d reaches primes above %d, the largest modulus "
                                  "the trace engine takes" % (n, _MAX_MODULUS))
        if not 1 <= self.r_max <= R_MAX:
            raise ValidationError("r_max must be in 1..%d, got %r" % (R_MAX, self.r_max))
        if self.block_size < 1:
            raise ValidationError("block size must be >= 1, got %r" % (self.block_size,))
        if not exponents_in_range(*self.modulus_exponents):
            raise ValidationError("modulus exponents out of range: %r" % (self.modulus_exponents,))
        if Fraction(self.exponent2) not in residual_exponents(2):
            raise ValidationError("second-moment exponent must be %s or %s" % residual_exponents(2))
        if self.workers < 1:
            raise ValidationError("workers must be >= 1, got %r" % (self.workers,))

    def primes(self) -> list[int]:
        """The window's primes, prime indices start..end (1-based, inclusive)."""
        return sieve_primes(self.end)[self.start - 1 : self.end]


def load_families(config: RunConfig) -> list[CurveFamily]:
    if config.families_path is None:
        return builtin_corpus()
    families = parse_family_file(config.families_path)
    if not families:
        raise ValidationError("%s defines no families" % (config.families_path,))
    return families


def moments_csv_path(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "moments.csv")


FSYNC_THREADS = 8  # most threads one batch fsyncs its temp files on
_COMPARE_CHARS = 1 << 16  # characters of a text _holds compares at a time


def _fsync_path(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_all(paths: list) -> None:
    """Fsync every file on min(FSYNC_THREADS, len(paths)) threads; re-raises the first failure.

    The threads run only _fsync_path, which calls nothing but os functions,
    so they open no span of bench/tracing.py, whose spans wrap public
    functions by name and share one stack. Each thread opens one file at a
    time, so a batch of any size holds at most FSYNC_THREADS descriptors.
    """
    n = min(FSYNC_THREADS, len(paths))
    errors: list[OSError] = []

    def work(share) -> None:
        try:
            for path in share:
                _fsync_path(path)
        except OSError as exc:  # raised in the caller's thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(paths[k::n],)) for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _holds(path: Path, text: str) -> bool:
    """Whether path is a regular file holding exactly text's UTF-8 bytes; any OSError counts as no.

    A target that is missing, is not a regular file, or differs in size is
    not read. Otherwise it is compared a chunk at a time, so neither its
    bytes nor the encoded text are held whole.
    """
    try:
        st = os.lstat(path)
        size = len(text) if text.isascii() else len(text.encode("utf-8"))
        if not stat.S_ISREG(st.st_mode) or st.st_size != size:
            return False
        with open(path, "rb") as fh:
            for i in range(0, len(text), _COMPARE_CHARS):
                part = text[i:i + _COMPARE_CHARS].encode("utf-8")
                if fh.read(len(part)) != part:
                    return False
        return True
    except OSError:
        return False


def atomic_write_files(texts: dict) -> None:
    """Write {path: text} as one durable batch, so readers never observe a partial file.

    A target that already holds the UTF-8 bytes of its text is left in place
    (no temp file, no rename), so it keeps its inode and mtime and make-style
    tools see no change on a rerun; there is no flag to turn this off. Every
    other text goes to <name>.tmp, creating each parent directory once. The
    temp files and the unchanged targets are fsynced in parallel; only once
    every fsync has returned is each temp file renamed onto its target, and
    then each parent directory is fsynced once, so when the call returns every
    path holds its text durably.
    If any step raises, every temp file the batch created is removed, targets
    not yet replaced keep their old bytes, and the error propagates.
    """
    batch = {Path(path): text for path, text in texts.items()}
    dirs = dict.fromkeys(path.parent for path in batch)
    changed: list[Path] = []
    unchanged: list[Path] = []
    for path, text in batch.items():
        (unchanged if _holds(path, text) else changed).append(path)
    tmps: list[Path] = []
    try:
        for d in dirs:
            d.mkdir(parents=True, exist_ok=True)
        for path in changed:
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                tmps.append(tmp)
                fh.write(batch[path])
        _fsync_all(tmps + unchanged)
        for tmp, path in zip(tmps, changed):
            os.replace(tmp, path)
        for d in dirs:
            _fsync_path(d)
    except BaseException:
        for tmp in tmps:
            try:
                os.unlink(tmp)
            except FileNotFoundError:  # already renamed onto its target
                pass
        raise


def remove_files(paths: list) -> None:
    """Unlink every path, then fsync each parent directory once, so the removals are durable."""
    for path in paths:
        os.unlink(path)
    for d in dict.fromkeys(Path(path).parent for path in paths):
        _fsync_path(d)


def atomic_write_text(path, text: str) -> None:
    """Write one file through atomic_write_files."""
    atomic_write_files({path: text})


def moments_csv_text(records: list[MomentRecord], r_max: int) -> str:
    """Render records (already in canonical order) as CSV text."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "prime_index", "p"] + ["S%d" % r for r in range(1, r_max + 1)])
    for rec in records:
        if rec.r_max != r_max:
            raise ValidationError(
                "record for %s p=%d has r_max=%d, writer expects %d"
                % (rec.family, rec.p, rec.r_max, r_max)
            )
        writer.writerow([rec.family, rec.prime_index, rec.p] + [str(v) for v in rec.sums])
    return buf.getvalue()


def write_moments_csv(path, records: list[MomentRecord], r_max: int) -> None:
    atomic_write_text(path, moments_csv_text(records, r_max))


def _first_bad_row(records: list[MomentRecord]) -> int | None:
    """Position of the first record that repeats an earlier (family, p) or whose
    prime_index is not the index of p among the primes (so a composite p is bad)."""
    if not records:
        return None
    # a p past the largest claimed index's prime is bad unsieved, as is one the engine never takes
    limit = min(nth_prime_bound(max(rec.prime_index for rec in records)), _MAX_MODULUS)
    index_of = prime_indices(rec.p for rec in records if rec.p <= limit)
    seen: dict[str, set[int]] = {}
    for i, rec in enumerate(records):
        ps = seen.setdefault(rec.family, set())
        if rec.p in ps or index_of.get(rec.p) != rec.prime_index:
            return i
        ps.add(rec.p)
    return None


def read_moments_csv(path) -> tuple[int, list[MomentRecord]]:
    """Read a moments CSV; a malformed final row is dropped with a warning on stderr.

    Returns (r_max, records). A row is malformed when it does not parse,
    repeats the (family, p) of an earlier row, or gives a prime_index that is
    not the index of its p among the primes. Malformed rows anywhere but last
    are errors, as are absent or misnamed columns. Rows are parsed as they are
    read, so the file's text is never held whole.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise ValidationError("%s: empty CSV" % (path,))
            expected_s = ["S%d" % r for r in range(1, len(header) - 2)]
            if (len(header) < 4 or header[:3] != ["family", "prime_index", "p"]
                    or header[3:] != expected_s):
                raise ValidationError("%s: bad header %r" % (path, ",".join(header)))
            r_max = len(header) - 3
            records = []
            torn = 0  # line of a malformed row: an error unless no row follows it
            for line_no, row in enumerate(rows, start=2):
                if torn:
                    raise ValidationError("%s: malformed row at line %d" % (path, torn))
                try:
                    if len(row) != len(header):
                        raise ValueError("wrong field count")
                    records.append(MomentRecord(row[0], int(row[1]), int(row[2]),
                                                tuple(int(v) for v in row[3:])))
                except ValueError:
                    torn = line_no
        bad = _first_bad_row(records)  # records[i] came from line i + 2
        if bad is not None:
            if torn or bad < len(records) - 1:
                raise ValidationError("%s: malformed row at line %d" % (path, bad + 2))
            torn = bad + 2
            records.pop()
    except (UnicodeDecodeError, ValidationError):
        # A bad byte is reported before any malformed row, and at its position
        # in the file; the streaming decoder gives its position within a chunk.
        Path(path).read_bytes().decode("utf-8")
        raise
    if torn:
        print("warning: %s: dropped malformed final row at line %d" % (path, torn),
              file=sys.stderr)
    return r_max, records

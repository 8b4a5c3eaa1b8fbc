"""RINEX 3.04 observation file reading and writing.

Scope is deliberately narrow: observation files only (no navigation
messages, no RINEX 2, no Hatanaka compression), one code per
constellation on the L1/E1/B1/G1 band.  Satellite states are carried in
a separate sidecar file (see `fileio`).  GLONASS wavelengths come from
the GLONASS SLOT / FRQ # header table.

The parser is defensive: any byte stream yields either a parsed result
or a structured `MalformedHeader` / `MalformedEpoch` error carrying the
offending line number.  Epochs that fail to parse are dropped with a
warning and parsing continues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import lru_cache

import numpy as np

from . import textnum
from .constants import (CLIGHT, FREQ_BDS_B1, FREQ_GAL_E1, FREQ_GLO_G1_BASE,
                        FREQ_GLO_G1_STEP, FREQ_GPS_L1)
from .errors import MalformedEpoch, MalformedHeader
from .gnsstime import GpsTime
from .types import Constellation, Epoch, SatelliteId

RINEX_VERSION = 3.04
# single L1-band code triple per constellation
OBS_CODES = {
    Constellation.GPS: ("C1C", "L1C", "D1C"),
    Constellation.GLO: ("C1C", "L1C", "D1C"),
    Constellation.GAL: ("C1C", "L1C", "D1C"),
    Constellation.BDS: ("C2I", "L2I", "D2I"),
}
_NOMINAL_FREQ = {
    Constellation.GPS: FREQ_GPS_L1,
    Constellation.GAL: FREQ_GAL_E1,
    Constellation.BDS: FREQ_BDS_B1,
}
# each system by its letter
_SYSTEMS = {system.value: system for system in Constellation}


def carrier_wavelength(sat: SatelliteId, channel: int = 0) -> float:
    """Wavelength [m] of the satellite's carrier of `OBS_CODES`; a GLONASS
    satellite's by its FDMA frequency `channel`."""
    if sat.constellation is Constellation.GLO:
        return CLIGHT / (FREQ_GLO_G1_BASE + channel * FREQ_GLO_G1_STEP)
    return CLIGHT / _NOMINAL_FREQ[sat.constellation]


def glonass_channel(prn: int) -> int:
    """Frequency channel assignment for simulated GLONASS satellites."""
    return ((prn - 1) % 14) - 7


@dataclass
class RinexHeader:
    """The subset of RINEX observation header records the library uses."""

    version: float = RINEX_VERSION
    marker_name: str = "SIM"
    approx_position: np.ndarray | None = None
    observation_codes: dict[Constellation, tuple[str, ...]] = field(
        default_factory=lambda: dict(OBS_CODES))
    interval: float | None = None
    glonass_channels: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.version < 3.0:
            raise MalformedHeader(f"unsupported version {self.version}")


def _header_line(content: str, label: str) -> str:
    return f"{content:<60s}{label}\n"


_ROW_SLICE = 4096       # records formatted and written at a time


def write_rinex_obs(header: RinexHeader, epochs, stream) -> None:
    """Emit a RINEX 3.04 observation file, `_ROW_SLICE` records at a time;
    `parse_rinex_obs` inverts it at 3 decimals. Each value carries its
    record's LLI digit, 1 where lock is 0 (a slip), and signal-strength
    digit: SNR in 6 dB-Hz bins rounded half to even, clipped to 1..9."""
    stream.write(_header_line(
        f"{header.version:9.2f}{'':11s}{'OBSERVATION DATA':<20s}{'M':<20s}",
        "RINEX VERSION / TYPE"))
    stream.write(_header_line(f"{'gnssgraph':<20s}{'':40s}",
                              "PGM / RUN BY / DATE"))
    stream.write(_header_line(f"{header.marker_name:<60s}", "MARKER NAME"))
    if header.approx_position is not None:
        x, y, z = header.approx_position
        stream.write(_header_line(f"{x:14.4f}{y:14.4f}{z:14.4f}",
                                  "APPROX POSITION XYZ"))
    for const, codes in header.observation_codes.items():
        body = f"{const.value}  {len(codes):4d}"
        body += "".join(f" {code:>3s}" for code in codes)
        stream.write(_header_line(body, "SYS / # / OBS TYPES"))
    if header.interval is not None:
        stream.write(_header_line(f"{header.interval:10.3f}", "INTERVAL"))
    if header.glonass_channels:
        items = sorted(header.glonass_channels.items())
        body = f"{len(items):3d} "
        per_line = 8
        for i in range(0, len(items), per_line):
            chunk = items[i:i + per_line]
            line = body if i == 0 else "    "
            line += "".join(f"R{prn:02d} {ch:2d} " for prn, ch in chunk)
            stream.write(_header_line(line.rstrip(), "GLONASS SLOT / FRQ #"))
    stream.write(_header_line("", "END OF HEADER"))

    epochs = list(epochs)
    sats, code, phase, doppler, lock, snr = (np.concatenate([np.zeros(
        0, int), *(getattr(epoch, name) for epoch in epochs)]) for name in
        ("sats", "code", "phase", "doppler", "lock", "snr"))
    # the epoch lines ahead of each record that has any, and at the end
    ahead = {}
    for start, epoch in zip(np.cumsum([0, *map(len, epochs)]).tolist(),
                            epochs):
        cal = epoch.time.to_calendar()
        seconds = cal.second + cal.microsecond * 1e-6
        ahead[start] = ahead.get(start, "") + (
            f"> {cal.year:4d} {cal.month:02d} {cal.day:02d} "
            f"{cal.hour:02d} {cal.minute:02d} {seconds:10.7f}"
            f"  0{len(epoch):3d}\n")
    last = ahead.pop(len(sats), "")
    marked = np.array([*ahead], dtype=int)
    lines = textnum.strings([*ahead.values()])
    scaled = snr / 6.0
    for a in range(0, len(sats), _ROW_SLICE):
        rows = slice(a, a + _ROW_SLICE)
        finite = np.isfinite(scaled[rows])
        # per record the SNR digit, then the name: the first bad one raises
        named = a + (len(finite) if finite.all() else int(finite.argmin()))
        names = SatelliteId.names_of(sats[a:named])
        if named < a + len(finite):
            round(float(scaled[named]))
        flags = np.column_stack([
            48 + (lock[rows] == 0),
            48 + np.clip(np.rint(scaled[rows]), 1, 9)]).astype(np.uint8)
        first, end = marked.searchsorted([a, a + len(finite)])
        epoch_lines = np.zeros((len(finite), lines.shape[1]), np.uint8)
        epoch_lines[marked[first:end] - a] = lines[first:end]
        stream.write(textnum.text(
            epoch_lines, names, textnum.fixed(code[rows], 3, 14), flags,
            textnum.fixed(phase[rows], 3, 14), flags,
            textnum.fixed(doppler[rows], 3, 14), flags, b"\n"))
    stream.write(last)


def _parse_header(lines) -> tuple[RinexHeader, int]:
    """Consume header records; return (header, index of first body line)."""
    header = RinexHeader(observation_codes={})
    pending_codes: tuple[Constellation, int, tuple] | None = None
    for number, raw in enumerate(lines, start=1):
        label = raw[60:80].strip()
        body = raw[:60]
        try:
            if label == "RINEX VERSION / TYPE":
                header.version = float(body[:9])
                if header.version < 3.0:
                    raise MalformedHeader(
                        f"line {number}: unsupported version {header.version}")
                if body[20:21] not in ("O", " "):
                    raise MalformedHeader(
                        f"line {number}: not an observation file")
            elif label == "MARKER NAME":
                header.marker_name = body.strip()
            elif label == "APPROX POSITION XYZ":
                header.approx_position = np.array(
                    [float(body[k:k + 14]) for k in (0, 14, 28)])
            elif label == "SYS / # / OBS TYPES":
                if body[0] != " ":
                    # the letter's system, or what `Constellation` raises
                    pending_codes = (_SYSTEMS.get(body[0])
                                     or Constellation(body[0]),
                                     int(body[3:7]), ())
                if pending_codes is None:
                    raise MalformedHeader(
                        f"line {number}: continuation without system line")
                const, count, codes = pending_codes
                codes = (codes + tuple(body[7:].split()))[:count]
                header.observation_codes[const] = codes
                pending_codes = (const, count, codes)
            elif label == "INTERVAL":
                header.interval = float(body[:10])
            elif label == "GLONASS SLOT / FRQ #":
                for token in body[3:].replace("R", " R").split():
                    if token.startswith("R"):
                        prn = int(token[1:])
                    else:
                        header.glonass_channels[prn] = int(token)
            elif label == "END OF HEADER":
                return header, number
        except MalformedHeader:
            raise
        except (ValueError, KeyError, UnboundLocalError) as exc:
            raise MalformedHeader(f"line {number}: {exc}") from exc
    raise MalformedHeader(f"line {len(lines)}: missing END OF HEADER")


def _parse_epoch_line(line: str, number: int) -> tuple[GpsTime, int]:
    if len(line) < 35:
        raise MalformedEpoch(f"line {number}: truncated epoch record")
    try:
        year, month, day = int(line[2:6]), int(line[7:9]), int(line[10:12])
        hour, minute = int(line[13:15]), int(line[16:18])
        seconds = float(line[19:29])
        count = int(line[32:35])
        whole = int(seconds)
        # to the microsecond; a fraction that rounds to 1 s (59.9999996)
        # carries into the next second
        micro = round((seconds - whole) * 1e6)
        if micro < 0:
            raise ValueError(f"negative seconds {seconds}")
        moment = datetime(year, month, day, hour, minute,
                          whole) + timedelta(microseconds=micro)
    except (ValueError, OverflowError) as exc:  # OverflowError: inf seconds
        raise MalformedEpoch(f"line {number}: {exc}") from exc
    if count < 0:
        raise MalformedEpoch(f"line {number}: negative satellite count")
    return GpsTime.from_calendar(moment), count


# an LLI or signal-strength code point's digit, 0 for a space or none,
# 10 where `int` must read it (128: any point above 127)
_DIGIT = np.full(129, 10, dtype=np.uint32)
_DIGIT[[0, 32]], _DIGIT[48:58] = 0, np.arange(10)
_KEPT = np.array([[1], [2], [3]])      # the kinds of C, L and D
_KEYS = 100 * len(Constellation)      # every satellite key is below it


@lru_cache(maxsize=8)
def _record_type(slots: int) -> np.dtype:
    """The structured dtype that views a record line of `slots` codes."""
    return np.dtype([("sat", "U3"), ("obs", [("value", "U14"),
                                             ("flags", np.uint32, 2)],
                                     slots)])


@lru_cache(maxsize=1024)
def _satellite(text: str, codes: frozenset, channels: frozenset):
    """(key, wavelength, the last code of C, L and D or -1, then each
    code's kind: 1-3 for C, L, D, else 4) of a record's ID under a header's
    codes and GLONASS channels, as items; None to skip; a bad ID's message."""
    if text[:1] not in _SYSTEMS:
        return None
    try:
        sat = SatelliteId.parse(text)
    except (ValueError, KeyError, IndexError):
        return "bad satellite id"
    codes = dict(codes).get(sat.constellation)
    if not codes:
        return None
    kinds = ["CLD".find(code[0]) + 1 or 4 for code in codes]
    last = {kind: k for k, kind in enumerate(kinds)}
    return (sat.key, carrier_wavelength(sat, dict(channels).get(sat.prn, 0)),
            *(last.get(kind, -1) for kind in (1, 2, 3)), *kinds)


def _indexed(items: list) -> tuple[list, np.ndarray]:
    """The distinct items in order of first appearance, and the index of
    each item among them."""
    index = {item: k for k, item in enumerate(dict.fromkeys(items))}
    return list(index), np.fromiter(map(index.__getitem__, items), int,
                                    len(items))


def _floats(cells: list) -> tuple:
    """The number in each cell as `float` reads it (it strips whitespace
    itself), then the indexes of the bad cells and of the blank ones. A
    cell that `float` refuses is read as `str.strip` leaves it, and a
    blank or a bad one is 0.0."""
    try:
        return np.fromiter(map(float, cells), float, len(cells)), [], []
    except ValueError:
        pass
    # resumed after each value `float` stops at
    numbers, rest, refused, blank = [], iter(cells), [], []
    while len(numbers) < len(cells):
        try:
            numbers.extend(map(float, rest))
        except ValueError:
            cell = cells[len(numbers)].strip()
            try:
                numbers.append(float(cell or 0))
            except ValueError:
                numbers.append(0.0)
                refused.append(len(numbers) - 1)
            if not cell:
                blank.append(len(numbers) - 1)
    return numbers, refused, blank


def parse_rinex_obs(stream) -> tuple[RinexHeader, list[Epoch]]:
    """Parse a RINEX 3.04 observation stream.

    Returns the header and every epoch that parsed completely.  A
    malformed epoch is dropped with a warning and parsing resumes at the
    next '>' record, so one corrupt record never loses a whole file.
    A satellite's lock count advances over each complete record before
    the first bad one of its epoch and restarts where LLI bit 0 is set.

    Only the epoch lines are read one by one. The records of the body are
    one fixed-width table: each distinct satellite ID is resolved once,
    every value is read by one `float` pass, and the records are ordered
    and their lock counts taken by stable sorts, not per-record Python.
    """
    text = stream.read()
    lines = text.splitlines()
    header, body_start = _parse_header(lines)
    marks = [k for k, line in enumerate(lines[body_start:], body_start)
             if line[:1] == ">"]
    # numpy strings end at a NUL; \x01 fails each value and digit as a
    # NUL does, and a message quotes the line itself
    cells = (text.replace("\x00", "\x01").splitlines() if "\x00" in text
             else lines)
    # per epoch: its time, record lines read and the error dropping it
    times, reads, failures, records = [], [], [], []
    for start, end in zip(marks, marks[1:] + [len(lines)]):
        try:
            time, count = _parse_epoch_line(lines[start], start + 1)
            failure = None if count < end - start else MalformedEpoch(
                f"line {end}: epoch at line {start + 1} lists {count} "
                f"satellites but has {end - start - 1}")
        except (MalformedEpoch, ValueError) as exc:
            time, count, failure = None, 0, exc
        times.append(time)
        reads.append(min(count, end - start - 1))
        failures.append(failure)
        records += cells[start + 1:start + 1 + reads[-1]]
    row_epoch = np.arange(len(reads)).repeat(reads)

    # per record: its ID, then per code a 14-character value and the
    # code points of its LLI and signal-strength characters
    slots = max([1, *map(len, header.observation_codes.values())])
    table = np.array(records, dtype=f"U{3 + 16 * slots}").view(
        _record_type(slots))
    ids, sat_of = _indexed(table["sat"].tolist())
    # the header's codes and channels as a cache key: a frozenset hashes
    # its items once, not at every call
    system = (frozenset(header.observation_codes.items()),
              frozenset(header.glonass_channels.items()))
    known = [_satellite(text.replace(" ", "0"), *system) for text in ids]
    # per record: key, wavelength, the last code of C, L and D, and the
    # kind of each code: 0 for none, -1 for all codes of a bad ID
    info = np.array([entry + (0,) * (slots + 5 - len(entry))
                     if type(entry) is tuple else (0, 0, -1, -1, -1)
                     + (-1 if entry else 0,) * slots for entry in known],
                    dtype=float).reshape(-1, 5 + slots)[sat_of]
    kind, last = info[:, 5:], info[:, 2:5].astype(int)
    value, flags = table["obs"]["value"], table["obs"]["flags"]
    read = kind > 0
    number = np.zeros(read.shape)
    # record -> 3 * code + 0, 1 or 2 for its first bad value, LLI or
    # signal strength; -1 for a bad ID
    bad = dict.fromkeys((kind[:, 0] < 0).nonzero()[0].tolist(), -1)
    number[read], refused, blank = _floats(value[read].tolist())
    if refused or blank:
        record, code = read.nonzero()      # of each value read
        for r, slot in zip(record[refused].tolist(), code[refused].tolist()):
            bad.setdefault(r, 3 * slot)
        if blank:
            # a blank value is not read: the last of its kind may be an
            # earlier code
            read[record[blank], code[blank]] = False
            last = np.where(read[:, None] & (kind[:, None] == _KEPT),
                            np.arange(slots), -1).max(axis=2)
    digits = _DIGIT.take(flags, mode="clip")
    odd = digits == 10
    for r, slot, part in zip(*(odd & ((kind == 2) & read)[..., None]
                               ).nonzero() if odd.any() else ()):
        flag = chr(flags[r, slot, part]).strip()
        try:
            digits[r, slot, part] = int(flag) if flag else 0
        except ValueError:
            position = 3 * slot + 1 + part
            bad[r] = min(bad.get(r, position), position)

    # an epoch's first bad record drops it, and the records from it on
    # are not read
    counted = last.min(axis=1) >= 0
    for e, r in {row_epoch[r]: r for r in sorted(bad, reverse=True)}.items():
        counted[r:row_epoch.searchsorted(e, "right")] = False
        k = marks[e] + 1 + r - row_epoch.searchsorted(e)
        slot, part = divmod(bad[r], 3)
        chunk = lines[k][3 + 16 * slot:19 + 16 * slot]
        try:        # what reading the record on line k + 1 raises
            if bad[r] < 0 or part == 0:
                raise MalformedEpoch("bad satellite id" if bad[r] < 0 else
                                     f"bad field {chunk[:14].strip()!r}",
                                     k + 1)
            int(chunk[13 + part])
        except (MalformedEpoch, ValueError) as exc:
            failures[e] = exc

    # the counted records by epoch, then satellite, then record: each
    # sorted by its place, epoch * _KEYS + key, in one stable sort
    counted = counted.nonzero()[0]
    key = info[counted, 0].astype(int)
    place = row_epoch[counted] * _KEYS + key
    order = place.argsort(kind="stable")
    rows, place, sats = counted[order], place[order], key[order]
    code, phase, doppler = number[rows[:, None], last[rows]].T.copy()
    wavelength = info[rows, 1]
    lli, strength = digits[rows, last[rows, 1]].T
    # a satellite's lock count: its records since the last with LLI bit 0
    # set, or since its first; its records in order by a stable (radix)
    # sort of the keys
    by_sat = sats.astype(np.int16).argsort(kind="stable")
    run, step = sats[by_sat], np.arange(len(sats))
    lock = np.empty_like(step)
    lock[by_sat] = step - np.maximum.accumulate(
        np.where(lli[by_sat] & 1, step, run.searchsorted(run)))
    for e in (place[1:][place[1:] == place[:-1]] // _KEYS).tolist():
        failures[e] = failures[e] or ValueError("duplicate satellite in "
                                                "epoch")
    bounds = place.searchsorted(np.arange(len(reads) + 1) * _KEYS).tolist()
    snr = strength * 6.0
    epochs: list[Epoch] = []
    for mark, time, failure, a, b in zip(marks, times, failures, bounds,
                                         bounds[1:]):
        if failure is None:
            epochs.append(Epoch(time, sats[a:b], code[a:b], phase[a:b],
                                doppler[a:b], wavelength[a:b], lock[a:b],
                                snr[a:b]))
        else:
            warnings.warn(f"dropping epoch at line {mark + 1}: {failure}")
    return header, epochs


def header_for_scenario(config, reference_position=None) -> RinexHeader:
    """Header matching a simulator scenario (codes, interval, GLONASS
    channel table)."""
    codes = {c: OBS_CODES[c] for c in sorted(config.counts,
                                             key=lambda c: c.value)}
    channels = {}
    if Constellation.GLO in config.counts:
        channels = {prn: glonass_channel(prn)
                    for prn in range(1, config.counts[Constellation.GLO] + 1)}
    return RinexHeader(
        marker_name="SIMULATED",
        approx_position=(None if reference_position is None
                         else np.asarray(reference_position, float)),
        observation_codes=codes,
        interval=1.0 / config.rate,
        glonass_channels=channels)

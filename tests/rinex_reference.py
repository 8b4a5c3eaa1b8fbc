"""The RINEX body parser as a loop over record lines, one record at a
time: the reference that `parse_rinex_obs` must agree with, epochs,
arrays and warnings alike."""

import numpy as np

from gnssgraph.errors import MalformedEpoch
from gnssgraph.rinex import (_parse_epoch_line, _parse_header,
                             carrier_wavelength)
from gnssgraph.types import Constellation, Epoch, SatelliteId


def _satellite(text, number, header):
    try:
        Constellation(text[:1])
    except ValueError:
        return None
    try:
        sat = SatelliteId.parse(text)
    except (ValueError, KeyError, IndexError) as exc:
        raise MalformedEpoch(f"line {number}: bad satellite id") from exc
    codes = header.observation_codes.get(sat.constellation)
    if not codes:
        return None
    return (sat.key, tuple(code[0] for code in codes),
            carrier_wavelength(sat, header.glonass_channels.get(sat.prn, 0)))


def _record(line, number, header, locks):
    """(key, code, phase, Doppler, wavelength, lock, SNR) of a record, or
    None for a record to skip."""
    sat = _satellite(line[:3].replace(" ", "0"), number, header)
    if sat is None:
        return None
    key, kinds, wavelength = sat
    values = {}
    lli = snr_digit = 0
    for slot, kind in enumerate(kinds):
        chunk = line[3 + 16 * slot:3 + 16 * slot + 16]
        text = chunk[:14].strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError as exc:
            raise MalformedEpoch(f"line {number}: bad field {text!r}") from exc
        values[kind] = value
        if kind == "L":
            flag = chunk[14:15].strip()
            lli = int(flag) if flag else 0
            digit = chunk[15:16].strip()
            snr_digit = int(digit) if digit else 0
    if "C" not in values or "L" not in values or "D" not in values:
        return None
    locks[key] = 0 if lli & 1 else locks.get(key, -1) + 1
    return (key, values["C"], values["L"], values["D"], wavelength,
            locks[key], snr_digit * 6.0)


def parse_reference(text):
    """(epochs, warning messages) of parsing `text` record by record."""
    lines = text.splitlines()
    header, k = _parse_header(lines)
    epochs, messages, locks = [], [], {}
    while k < len(lines):
        if not lines[k].startswith(">"):
            k += 1
            continue
        start = k
        try:
            time, count = _parse_epoch_line(lines[k], k + 1)
            records = []
            for slot in range(count):
                k += 1
                if k >= len(lines) or lines[k].startswith(">"):
                    raise MalformedEpoch(
                        f"line {k}: epoch at line {start + 1} lists {count} "
                        f"satellites but has {slot}")
                record = _record(lines[k], k + 1, header, locks)
                if record is not None:
                    records.append(record)
            table = np.array(records, dtype=float).reshape(-1, 7)
            sats, code, phase, doppler, wavelength, lock, snr = table[
                np.argsort(table[:, 0], kind="stable")].T.copy()
            if (np.diff(sats) == 0).any():
                raise ValueError("duplicate satellite in epoch")
            epochs.append(Epoch(time, sats.astype(int), code, phase, doppler,
                                wavelength, lock.astype(int), snr))
        except (MalformedEpoch, ValueError) as exc:
            messages.append(f"dropping epoch at line {start + 1}: {exc}")
            k = start
            while k + 1 < len(lines) and not lines[k + 1].startswith(">"):
                k += 1
        k += 1
    return epochs, messages


def same_epochs(a, b) -> bool:
    """Whether two epoch lists hold the same times and the same arrays,
    values and dtypes."""
    names = ("sats", "code", "phase", "doppler", "wavelength", "lock", "snr")
    return len(a) == len(b) and all(
        x.time == y.time and all(
            getattr(x, n).dtype == getattr(y, n).dtype
            and getattr(x, n).tobytes() == getattr(y, n).tobytes()
            for n in names) for x, y in zip(a, b))

"""Compile a classical database into its index-conditioned XOR network.

The resulting circuit maps |i>|0> to |i>|record_i> for every index i.  Index
qubits are only ever used as controls and data qubits only as MCX targets,
so the circuit is an involution: applying it twice is the identity, and its
inverse is the reversed gate list with identical behaviour.

Record strings read MSB first: column 0 is the leftmost character and lands
on data qubit n-1 counting within the data register, so the register's
integer value equals the record read as a binary number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .logic import MAX_INPUTS, Cover, TruthTable, cover_to_gates, minimize
from .sim import Circuit, Register

MAX_RECORDS = 1 << MAX_INPUTS


@dataclass(frozen=True)
class Database:
    """Fixed-width bit-string records plus the derived index width."""

    records: tuple[str, ...]

    def __post_init__(self):
        if not self.records:
            raise ValueError("database needs at least one record")
        n = len(self.records[0])
        if n < 1:
            raise ValueError("records must be at least one bit wide")
        for r in self.records:
            if len(r) != n:
                raise ValueError("records differ in length")
            if set(r) - {"0", "1"}:
                raise ValueError(f"record {r!r} has characters outside 0/1")
        if len(self.records) > MAX_RECORDS:
            raise ValueError(f"database exceeds 2**{MAX_INPUTS} records")

    @property
    def n(self) -> int:
        """Record width in bits."""
        return len(self.records[0])

    @property
    def m(self) -> int:
        """Index width: ceil(log2(count)), minimum 1."""
        return max(1, (len(self.records) - 1).bit_length())

    @property
    def is_padded(self) -> bool:
        return len(self.records) == 1 << self.m


def parse_database(text: str) -> Database:
    """One record per line; blank lines and '#' comments ignored."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) - {"0", "1"}:
            raise ParseError(f"record {line!r} has characters outside 0/1", lineno)
        if records and len(line) != len(records[0][1]):
            raise ParseError(
                f"record length {len(line)} differs from {len(records[0][1])}", lineno
            )
        records.append((lineno, line))
    if not records:
        raise ParseError("no records found")
    return Database(tuple(r for _, r in records))


def load_database(path) -> Database:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_database(fh.read())


def pad_database(database: Database) -> Database:
    """Extend to 2**m records by duplicating record 0.

    Duplication rather than don't-cares guarantees every index maps to a
    genuine record, so a clause can never fire on garbage; the round planner
    counts winners over the padded list to stay consistent.  The result does
    not remember the original count: a caller that reports it reads
    ``len(database.records)`` before padding.
    """
    target = 1 << database.m
    padded = database.records + (database.records[0],) * (target - len(database.records))
    return Database(padded)


def column_truth_table(database: Database, column: int) -> TruthTable:
    """Truth table of one record column over the index bits."""
    if not 0 <= column < database.n:
        raise ValueError(f"column {column} out of range for width {database.n}")
    bits = [int(r[column]) for r in database.records]
    # Unpadded rows follow the padding rule (duplicates of record 0), so the
    # result agrees with column_truth_table(pad_database(db), column).
    bits += [bits[0]] * ((1 << database.m) - len(bits))
    return TruthTable(database.m, bits)


@dataclass
class DictionaryCircuit:
    """Synthesized mapping circuit plus its source covers for reporting."""

    circuit: Circuit
    covers: tuple[Cover, ...]

    @property
    def index(self) -> Register:
        return self.circuit.registers["index"]

    @property
    def data(self) -> Register:
        return self.circuit.registers["data"]

    def cubes_per_column(self) -> list[int]:
        return [len(c.cubes) for c in self.covers]


def build_dictionary(database: Database) -> DictionaryCircuit:
    """Synthesize the mapping circuit column by column.

    Requires a padded database.  Column j targets data qubit m + n - 1 - j so
    the leftmost record character is the data register's most significant bit.
    """
    if not database.is_padded:
        raise ValueError("database must be padded to a power of two first")
    m, n = database.m, database.n
    circuit = Circuit(m + n)
    idx = circuit.add_register(Register("index", tuple(range(m))))
    circuit.add_register(Register("data", tuple(range(m, m + n))))
    covers = []
    for column in range(n):
        cover = minimize(column_truth_table(database, column))
        covers.append(cover)
        target = m + n - 1 - column
        circuit.extend(cover_to_gates(cover, idx, target))
    return DictionaryCircuit(circuit, tuple(covers))

"""From a classical database to a reversible lookup circuit.

Each record column becomes a truth table over the index bits, the table is
synthesized as an exclusive sum of product terms, and each term compiles to
one multi-controlled NOT that XORs it onto that column's data qubit.  The
resulting circuit maps |i>|0> to |i>|record_i> and is its own inverse.

Run with:  python3 demos/02_dictionary_synthesis.py
"""

from gdict import (
    Database,
    apply_circuit,
    build_dictionary,
    column_truth_table,
    gate_count,
    marginal_distribution,
    minimize,
    new_state,
    pad_database,
)

db = pad_database(Database(("0101000", "1000110", "1010110", "0110101")))
print(f"database: {len(db.records)} records of {db.n} bits, index width {db.m}\n")

print("column truth tables and their minimized covers (inputs MSB->LSB):")
for column in range(db.n):
    table = column_truth_table(db, column)
    cover = minimize(table)
    bits = [int(b) for b in table.outputs]
    print(f"  column {column}: outputs {bits} -> cubes {cover.to_strings()}")

built = build_dictionary(db)
print("\ngate counts:", gate_count(built.circuit))

print("\nlookup check, one simulation per index:")
for i, record in enumerate(db.records):
    state = new_state(built.circuit.num_qubits, built.index.place_value(i))
    apply_circuit(state, built.circuit)
    dist = marginal_distribution(state, built.data)
    value = max(dist, key=dist.get)
    ok = "ok" if format(value, f"0{db.n}b") == record else "MISMATCH"
    print(f"  |{i:02b}>|0> -> data {value:0{db.n}b}  (record {record})  {ok}")

# Applying the circuit twice is the identity: every write is an XOR
# conditioned only on index qubits.
state = new_state(built.circuit.num_qubits, built.index.place_value(2))
apply_circuit(state, built.circuit)
apply_circuit(state, built.circuit)
print("\napplied twice, data register:",
      marginal_distribution(state, built.data)[0], "probability back at 0")

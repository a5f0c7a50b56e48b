"""Chunk-level identity check shared by the HTAP unit and chaos suites."""


def assert_same_chunks(served, oracle):
    """Two column stores hold the same chunks, bit for bit.

    Stricter than comparing ``scan_rows()`` with ``==``: chunk boundaries,
    row counts, dtypes and validity masks must match, numeric data must
    match byte for byte (so ``-0.0`` differs from ``0.0``), and object
    columns must match element ``repr`` by element ``repr``.
    """
    served_chunks = list(served.scan_chunks())
    oracle_chunks = list(oracle.scan_chunks())
    assert len(served_chunks) == len(oracle_chunks)
    for got, want in zip(served_chunks, oracle_chunks):
        assert list(got) == list(want)
        for name in want:
            g, w = got[name], want[name]
            assert len(g) == len(w), name
            assert g.data.dtype == w.data.dtype, name
            assert g.validity.tobytes() == w.validity.tobytes(), name
            if w.data.dtype == object:
                assert ([repr(v) for v in g.data]
                        == [repr(v) for v in w.data]), name
            else:
                assert g.data.tobytes() == w.data.tobytes(), name

import struct
import tracemalloc

import numpy as np
import pytest

from emis.data import FeatureBank, SynthSpec, generate_synthetic
from emis.head import HeadDims, HeadParams, head_param_count, init_params, param_blocks

from scalar_oracle import OracleHead


@pytest.fixture(scope="session")
def default_synth():
    """The stock synthetic benchmark; generated once per session."""
    return generate_synthetic(SynthSpec())


def oracle_from_params(params: HeadParams) -> OracleHead:
    def mlp(a):
        return (a.w1.tolist(), a.b1.tolist(), a.w2.tolist(), a.b2.tolist())

    return OracleHead(attn_is=mlp(params.attn_is), attn_em=mlp(params.attn_em),
                      proj=(params.proj_w.tolist(), params.proj_b.tolist()),
                      gamma=float(params.gamma))


def random_params(dims: HeadDims, seed: int) -> HeadParams:
    return init_params(dims, seed=seed)


def one_hot_attention_params(dim: int) -> HeadParams:
    """A head whose attention, for a one-hot modifier e_k, is exactly e_k."""
    params = init_params(HeadDims(dim, dim, dim), seed=0)
    for branch in (params.attn_is, params.attn_em):
        branch.w1[...] = np.eye(dim)
        branch.w2[...] = 1e4 * np.eye(dim)   # the other logits' exp underflows to 0
    return params


def assert_one_flat_buffer(params: HeadParams) -> None:
    """Every block is a C-contiguous view, laid end to end in block order."""
    blocks = [b for _, b in param_blocks(params)]
    start = blocks[0].__array_interface__["data"][0]
    offset = 0
    for block in blocks:
        assert isinstance(block, np.ndarray) and block.dtype == np.float64
        assert block.flags.c_contiguous and block.base is not None
        assert block.__array_interface__["data"][0] == start + 8 * offset
        offset += block.size
    assert offset == head_param_count(params)
    assert all(b.base is blocks[0].base for b in blocks)


def refuse_matrix64(monkeypatch) -> None:
    """Make every ``FeatureBank.matrix64`` call fail, on any bank: the
    pipeline normalizes only the raw rows it gathers."""
    def matrix64(bank):
        raise AssertionError(f"matrix64 was called on a bank of {bank.n} rows")

    monkeypatch.setattr(FeatureBank, "matrix64", matrix64)


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


U32_EDGES = (0, 1, 2, 0x7FFFFFFF, 0xFFFFFFFF)


def corruptions(raw: bytes, u32_fields: dict[str, int], nan_at: int, nan_format: str):
    """(label, bytes) for every way the file fuzz breaks a valid file.

    Every truncation, a wrong magic, each little-endian u32 header field
    moved by one and set to edge values, and one payload value set to NaN.
    """
    for cut in range(len(raw)):
        yield f"truncated to {cut} bytes", raw[:cut]
    yield "magic", b"XXXX" + raw[4:]
    for name, offset in u32_fields.items():
        (orig,) = struct.unpack_from("<I", raw, offset)
        for value in sorted({orig - 1, orig + 1, *U32_EDGES} - {orig, -1, 2 ** 32}):
            yield f"{name}={value}", raw[:offset] + struct.pack("<I", value) + raw[offset + 4:]
    nan = struct.pack(nan_format, float("nan"))
    yield "NaN payload", raw[:nan_at] + nan + raw[nan_at + len(nan):]

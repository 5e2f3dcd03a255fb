import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsparx.devices import DeviceModel, WireModel
from binsparx.engine import EngineConfig
from binsparx.errors import ConfigError, DomainError
from binsparx.readout import AdcModel, dummy_compensate
from binsparx.solver import solve_columns_fast


def _level(adc, i) -> int:
    """The level of one current sample."""
    levels, _ = adc.quantize_array([i])
    return int(levels[0])


class TestAdc:
    def test_rounding_example(self):
        adc = AdcModel(bits=6, quantum=1e-6)
        assert _level(adc, 9.4e-6) == 9

    def test_saturation_example(self):
        adc = AdcModel(bits=6, quantum=1e-6)
        assert _level(adc, 70e-6) == 63

    def test_ties_to_even(self):
        adc = AdcModel(bits=6, quantum=1e-6)
        assert _level(adc, 2.5e-6) == 2
        assert _level(adc, 3.5e-6) == 4

    @pytest.mark.parametrize("rounding", ["half_even", "half_up"])
    @pytest.mark.parametrize("q", [1e-6, 9e-7])  # 9e-7: compensated ReRAM quantum
    def test_every_half_level_is_a_tie(self, q, rounding):
        adc = AdcModel(bits=10, quantum=q, rounding=rounding)
        k = np.arange(adc.levels - 1)
        levels, clamps = adc.quantize_array((k + 0.5) * q)
        expected = k + (k % 2) if rounding == "half_even" else k + 1
        assert levels.tolist() == expected.tolist()
        assert clamps == 0

    def test_half_up_variant(self):
        adc = AdcModel(bits=6, quantum=1e-6, rounding="half_up")
        assert _level(adc, 2.5e-6) == 3
        assert _level(adc, 3.5e-6) == 4

    def test_offset(self):
        adc = AdcModel(bits=4, quantum=1e-6, offset=2e-6)
        assert _level(adc, 5e-6) == 3
        assert _level(adc, 0.0) == 0  # clamps below zero

    def test_negative_input_rejected(self):
        adc = AdcModel(bits=4, quantum=1e-6)
        with pytest.raises(DomainError):
            _level(adc, -1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # unchecked, NaN read as level -2**63 with no clamp counted, and inf
        # passed with a RuntimeWarning
        adc = AdcModel(bits=4, quantum=1e-6)
        with pytest.raises(DomainError, match="finite"):
            adc.quantize_array(np.array([bad, 3e-6]))

    def test_clamp_counting(self):
        adc = AdcModel(bits=3, quantum=1e-6)
        levels, clamps = adc.quantize_array(np.array([0.0, 3e-6, 9e-6, 20e-6]))
        assert levels.tolist() == [0, 3, 7, 7]
        assert clamps == 2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AdcModel(bits=0, quantum=1e-6)
        with pytest.raises(ConfigError):
            AdcModel(bits=4, quantum=0.0)
        with pytest.raises(ConfigError):
            AdcModel(bits=4, quantum=1e-6, rounding="floor")

    @pytest.mark.parametrize("kw", [{"quantum": float("nan")}, {"quantum": float("inf")},
                                    {"offset": float("nan")}, {"offset": float("-inf")}],
                             ids=["quantum-nan", "quantum-inf", "offset-nan", "offset-inf"])
    def test_non_finite_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            AdcModel(bits=3, **{"quantum": 1e-6, **kw})

    @settings(max_examples=300, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=15.49))
    def test_error_at_most_half_quantum_in_range(self, level_units):
        adc = AdcModel(bits=4, quantum=1e-6)
        i = level_units * 1e-6
        level = _level(adc, i)
        assert abs(level * 1e-6 - i) <= 0.5e-6 * (1 + 1e-9)

    def test_reduced_adc_lossless_below_corner(self):
        # 5-bit reduced ADC: counts 0..31 map one-to-one
        adc = AdcModel(bits=5, quantum=1e-6)
        for s in range(32):
            assert _level(adc, s * 1e-6) == s


class TestDummy:
    def test_identity_when_zero(self):
        assert dummy_compensate(5e-6, 0.0) == 5e-6

    def test_subtracts(self):
        # 32 active HRS cells at 0.1 uA leak 3.2 uA; compensation removes it
        assert dummy_compensate(10e-6 + 3.2e-6, 3.2e-6) == pytest.approx(10e-6)

    def test_floor_at_zero(self):
        assert dummy_compensate(1e-6, 2e-6) == 0.0

    def test_array_form(self):
        data, dummy = np.array([3e-6, 1e-6]), np.array([1e-6, 2e-6])
        out = dummy_compensate(data, dummy)
        # 3e-6 - 1e-6 is 2.0000000000000003e-06 in binary floating point
        assert out.tolist() == pytest.approx([2e-6, 0.0], rel=1e-12)
        assert out[1] == 0.0

    def test_exact_cancellation_linear_no_parasitics(self, rng):
        # with ohmic cells and no wire resistance the dummy current equals
        # (# gate-on cells) * i_hrs exactly.  The dummy draws i_hrs for the
        # stored-1 rows too, so compensation cancels the HRS term and leaves
        # on * (i_on - i_hrs): one compensated ON cell per ADC quantum
        dev = DeviceModel(kind="reram1t1r", i_on=1e-6, i_hrs=1e-7, i_off=0.0,
                          curve="linear")
        wire = WireModel(0.0, 0.0, 0.0, 0.0)
        stored = rng.integers(0, 2, (8, 64))
        gates = rng.integers(0, 2, (8, 64))
        data = solve_columns_fast(stored, gates, dev, wire, 0.7, tol=1e-12)
        dummy = solve_columns_fast(np.zeros_like(stored), gates, dev, wire, 0.7, tol=1e-12)
        comp = dummy_compensate(data.i_out, dummy.i_out)
        on = ((stored > 0) & (gates > 0)).sum(axis=1)
        hrs_on = ((stored == 0) & (gates > 0)).sum(axis=1)
        assert np.allclose(data.i_out, on * 1e-6 + hrs_on * 1e-7, rtol=1e-9)
        assert np.allclose(comp, on * (1e-6 - 1e-7), rtol=1e-9)
        adc = EngineConfig(device=dev, wire=wire, adc_bits="full").resolved_adc()
        levels, clamps = adc.quantize_array(comp)
        assert levels.tolist() == on.tolist()
        assert clamps == 0

    def test_compensation_reduces_error_with_parasitics(self, rng):
        dev = DeviceModel.reram1t1r()
        wire = WireModel.preset("M4")
        B = 64
        stored = rng.integers(0, 2, (B, 64))
        gates = rng.integers(0, 2, (B, 64))
        data = solve_columns_fast(stored, gates, dev, wire, 0.7, tol=1e-9, max_iter=2000)
        dummy = solve_columns_fast(np.zeros_like(stored), gates, dev, wire, 0.7,
                                   tol=1e-9, max_iter=2000)
        on = ((stored > 0) & (gates > 0)).sum(axis=1)
        # errors in ADC levels, each read on its own scale: uncompensated
        # one ON cell is i_on, compensated it is i_on - i_hrs
        raw_err = np.abs(data.i_out / dev.i_on - on)
        comp = dummy_compensate(data.i_out, dummy.i_out)
        comp_err = np.abs(comp / (dev.i_on - dev.i_hrs) - on)
        assert comp_err.mean() < raw_err.mean()

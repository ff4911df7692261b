"""Correctness tests for the rejuvenation layer.

The lifted kernels — lifted once from a small traced run — must produce
bit-exact results when applied to *different, larger* images through the
mini-Halide backend, both standalone and under the in-situ tiling constraints,
and the legacy runtime models must agree with the reference semantics (they
are slower by construction, not different).
"""

import numpy as np
import pytest

from repro.apps.images import make_test_planes
from repro.apps.minigmg import SMOOTH_SPEC
from repro.kgen import reference_float_conv
from repro.apps.irfanview import FILTER_SPECS as IV_SPECS
from repro.rejuvenation import (
    apply_lifted_irfanview,
    apply_lifted_minigmg,
    apply_lifted_photoshop,
    insitu_lifted_photoshop,
    legacy_minigmg_smooth,
    legacy_photoshop_filter,
    lift_irfanview_filter,
    lift_minigmg_smooth,
    lift_photoshop_filter,
    photoshop_reference,
)

PARAMS = {"threshold": 128, "brightness": 40}


@pytest.fixture(scope="module")
def planes():
    return make_test_planes(90, 70, seed=21)


class TestLiftedOnLargerImages:
    @pytest.mark.parametrize("name", ["invert", "blur", "blur_more", "sharpen",
                                      "sharpen_more", "threshold", "box_blur",
                                      "brightness"])
    def test_standalone_matches_reference(self, planes, name):
        lifted = lift_photoshop_filter(name)
        produced = apply_lifted_photoshop(lifted, name, planes, PARAMS)
        expected = photoshop_reference(name, planes, PARAMS)
        for channel in ("r", "g", "b"):
            np.testing.assert_array_equal(produced[channel], expected[channel],
                                          err_msg=f"{name}:{channel}")

    @pytest.mark.parametrize("name", ["invert", "blur", "threshold"])
    def test_insitu_matches_reference(self, planes, name):
        lifted = lift_photoshop_filter(name)
        produced = insitu_lifted_photoshop(lifted, name, planes, PARAMS)
        expected = photoshop_reference(name, planes, PARAMS)
        for channel in ("r", "g", "b"):
            np.testing.assert_array_equal(produced[channel], expected[channel],
                                          err_msg=f"{name}:{channel}")

    def test_irfanview_blur_on_larger_image(self, planes):
        image = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
        lifted = lift_irfanview_filter("blur")
        produced = apply_lifted_irfanview(lifted, "blur", image)
        padded = np.pad(image, ((1, 1), (1, 1), (0, 0)), mode="edge")
        flat = padded.reshape(padded.shape[0], padded.shape[1] * 3)
        expected = reference_float_conv(IV_SPECS["blur"], flat).reshape(image.shape)
        np.testing.assert_array_equal(produced, expected)

    def test_minigmg_iterations_match_legacy(self):
        lifted = lift_minigmg_smooth()
        rng = np.random.default_rng(5)
        grid = rng.uniform(-1, 1, size=(20, 18, 16))
        a, b = SMOOTH_SPEC.center_weight, SMOOTH_SPEC.neighbor_weight
        np.testing.assert_allclose(apply_lifted_minigmg(lifted, grid, 3),
                                   legacy_minigmg_smooth(grid, a, b, 3),
                                   rtol=1e-12, atol=1e-12)


class TestTracedParams:
    """The lifted kernels bake in the parameter values the lift traced."""

    @pytest.mark.parametrize("name, params", [("threshold", {"threshold": 200}),
                                              ("brightness", {"brightness": 90})])
    def test_untraced_value_is_refused(self, name, params):
        small = make_test_planes(64, 48, seed=3)
        lifted = lift_photoshop_filter(name)
        assert lifted.app_params == PARAMS
        with pytest.raises(ValueError, match=next(iter(params))):
            apply_lifted_photoshop(lifted, name, small, params)
        if name == "threshold":           # fully lifted: runs in situ too
            with pytest.raises(ValueError, match="threshold"):
                insitu_lifted_photoshop(lifted, name, small, params)

    def test_unknown_param_is_refused(self):
        small = make_test_planes(64, 48, seed=3)
        with pytest.raises(ValueError, match="gamma"):
            apply_lifted_photoshop(lift_photoshop_filter("invert"), "invert",
                                   small, {"gamma": 2})

    @pytest.mark.parametrize("name", ["threshold", "brightness", "blur"])
    def test_traced_values_and_none_agree(self, name):
        small = make_test_planes(64, 48, seed=3)
        lifted = lift_photoshop_filter(name)
        with_params = apply_lifted_photoshop(lifted, name, small, PARAMS)
        without = apply_lifted_photoshop(lifted, name, small)
        expected = photoshop_reference(name, small, PARAMS)
        for channel in ("r", "g", "b"):
            np.testing.assert_array_equal(with_params[channel],
                                          expected[channel])
            np.testing.assert_array_equal(without[channel], expected[channel])


class TestLookupTables:
    def test_table_is_read_once_and_shared_read_only(self, planes,
                                                    monkeypatch):
        """A request reads a lookup-table input from the traced memory once
        per LiftResult; later requests share the array, read-only."""
        from repro.core import lift_scenario
        from repro.rejuvenation.lifted import photoshop_kernel_request

        lifted = lift_scenario("photoshop", "brightness")    # a fresh result
        memory = lifted.trace_run.memory
        calls = []
        read_uint = memory.read_uint
        monkeypatch.setattr(memory, "read_uint",
                            lambda *args: calls.append(args) or read_uint(*args))
        kernel = sorted(lifted.kernels, key=lambda k: k.output)[0]
        requests = [photoshop_kernel_request(lifted, "brightness", kernel,
                                             "r", planes)]
        first_reads = len(calls)
        assert first_reads > 0
        for channel in ("r", "g"):
            requests.append(photoshop_kernel_request(
                lifted, "brightness", kernel, channel, planes))
        assert len(calls) == first_reads
        tables = [name for name in requests[0]["buffers"]
                  if requests[0]["buffers"][name].ndim == 1]
        assert tables
        for name in tables:
            table = requests[0]["buffers"][name]
            assert not table.flags.writeable
            assert all(request["buffers"][name] is table
                       for request in requests)
        produced = apply_lifted_photoshop(lifted, "brightness", planes, PARAMS)
        assert len(calls) == first_reads
        expected = photoshop_reference("brightness", planes, PARAMS)
        for channel in ("r", "g", "b"):
            np.testing.assert_array_equal(produced[channel], expected[channel])


class TestRequestPadding:
    @pytest.mark.parametrize("name, pad", [("solarize", 0), ("blur", 1)])
    def test_irfanview_request_pads_only_a_halo(self, planes, name, pad):
        """A filter that reads no halo binds the caller's image itself."""
        from repro.rejuvenation.lifted import irfanview_kernel_request

        image = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
        request = irfanview_kernel_request(lift_irfanview_filter(name), name,
                                           image)
        for buffer in request["buffers"].values():
            if pad:
                np.testing.assert_array_equal(
                    buffer, np.pad(image, ((1, 1), (1, 1), (0, 0)), mode="edge"))
            else:
                assert buffer is image


class TestLegacyModels:
    @pytest.mark.parametrize("name", ["invert", "blur", "threshold", "box_blur", "brightness"])
    def test_legacy_model_is_semantically_correct(self, planes, name):
        produced = legacy_photoshop_filter(name, planes, PARAMS)
        expected = photoshop_reference(name, planes, PARAMS)
        for channel in ("r", "g", "b"):
            if name == "blur":
                # The legacy model computes in float64; values match exactly for
                # these positive-weight kernels.
                np.testing.assert_array_equal(produced[channel], expected[channel])
            else:
                np.testing.assert_array_equal(produced[channel], expected[channel])

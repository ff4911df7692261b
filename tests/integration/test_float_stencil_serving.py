"""Full-path coverage for the x87 float-stencil generator (ROADMAP item 3).

``kgen/floatstencil.py`` existed without a scenario or test driving it end to
end; the ``emboss`` filter closes that gap: a *sparse* float convolution
(six of nine taps) registered as an IrfanView scenario and exercised through
the complete lift → lower → schedule → serve path, with differential
bit-identity checks across both realization backends and against the
generator's own reference implementation.
"""

import numpy as np
import pytest

from repro.apps.images import make_test_planes
from repro.apps.irfanview import FILTER_SPECS, FLOAT_STENCIL_FILTERS
from repro.apps.registry import get_scenario, scenarios
from repro.halide import Schedule
from repro.kgen import FloatConvSpec, reference_float_conv
from repro.rejuvenation import apply_lifted_irfanview, lift_irfanview_filter
from repro.rejuvenation.serving import serve_lifted


def _test_image(width: int = 40, height: int = 28, seed: int = 11
                ) -> np.ndarray:
    planes = make_test_planes(width, height, seed)
    return np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)


def _reference(filter_name: str, image: np.ndarray) -> np.ndarray:
    padded = np.pad(image, ((1, 1), (1, 1), (0, 0)), mode="edge")
    flat = padded.reshape(padded.shape[0], padded.shape[1] * 3)
    return reference_float_conv(FILTER_SPECS[filter_name],
                                flat).reshape(image.shape)


class TestFloatStencilRegistry:
    def test_float_stencil_scenarios_are_registered(self):
        tagged = {(s.app_name, s.filter_name)
                  for s in scenarios(tag="float-stencil")}
        assert ("irfanview", "emboss") in tagged
        assert ("irfanview", "blur") in tagged
        assert ("irfanview", "sharpen") in tagged

    def test_emboss_is_a_sparse_float_conv(self):
        spec = FILTER_SPECS["emboss"]
        assert isinstance(spec, FloatConvSpec)
        assert "emboss" in FLOAT_STENCIL_FILTERS
        # Sparse: some of the nine 3x3 positions carry no weight, so the
        # emitted kernel (and the lifted Func) skips those taps entirely.
        assert 0 < len(spec.tap_order()) < 9

    def test_scenario_factory_builds_a_liftable_app(self):
        scenario = get_scenario("irfanview", "emboss")
        app = scenario.make_app()
        assert "emboss" in app.filters()


class TestEmbossFullPath:
    @pytest.fixture(scope="class")
    def lifted(self):
        return lift_irfanview_filter("emboss")

    def test_lift_validates_bit_identical(self, lifted):
        verdict = lifted.validate()
        assert verdict and all(verdict.values()), (verdict, lifted.warnings)

    def test_backends_agree_and_match_reference(self, lifted):
        image = _test_image()
        compiled = apply_lifted_irfanview(lifted, "emboss", image,
                                          engine="compiled")
        interp = apply_lifted_irfanview(lifted, "emboss", image,
                                        engine="interp")
        np.testing.assert_array_equal(compiled, interp)
        np.testing.assert_array_equal(compiled, _reference("emboss", image))

    def test_scheduled_serving_is_bit_identical(self, lifted):
        """lift → schedule (tiled) → serve: both backends, same bits."""
        frames = [_test_image(seed=seed) for seed in (1, 2, 3)]
        func = lifted.funcs[lifted.kernels[0].output]
        original = func.schedule
        func.schedule = Schedule(tile_x=16, tile_y=16)
        try:
            compiled = serve_lifted(lifted, frames, engine="compiled",
                                    warm_start=False)
            interp = serve_lifted(lifted, frames, engine="interp",
                                  warm_start=False)
        finally:
            func.schedule = original
        assert not compiled.failed and not interp.failed
        for index, frame in enumerate(frames):
            np.testing.assert_array_equal(compiled.outputs[index],
                                          interp.outputs[index])
            np.testing.assert_array_equal(compiled.outputs[index],
                                          _reference("emboss", frame))

    def test_lowered_pipeline_matches_legacy(self, lifted):
        """The lifted emboss Func survives the loop-nest lowering: a
        compute_root single-stage pipeline realizes the same bits as the
        legacy application."""
        from repro.halide import FuncPipeline

        image = _test_image(width=24, height=18, seed=13)
        expected = _reference("emboss", image)
        func = lifted.funcs[lifted.kernels[0].output]
        pipeline = FuncPipeline()
        pipeline.add(func, input_name=lifted.kernels[0].input_names[0],
                     pad=1, pad_width=((1, 1), (1, 1), (0, 0)),
                     name="emboss")
        func.schedule = Schedule(compute="root")
        try:
            produced = pipeline.realize(image)
        finally:
            func.schedule = Schedule()
        np.testing.assert_array_equal(produced, expected)

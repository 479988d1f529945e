"""Tests of the declarative scenario/sweep specs (JSON round-trips, grids)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.exceptions import ReproError
from repro.runtime import ScenarioSpec, SweepSpec, spec_key


class TestScenarioSpec:
    def test_defaults_validate(self):
        spec = ScenarioSpec()
        assert spec.validate() is spec
        assert spec.problem == "rendezvous"
        assert spec.scheduler == "round_robin"

    def test_fields_are_normalised_to_tuples(self):
        spec = ScenarioSpec(labels=[6, 11], starts=[0, 3], scheduler_params={"patience": 4})
        assert spec.labels == (6, 11)
        assert spec.starts == (0, 3)
        assert spec.scheduler_params == (("patience", 4),)
        assert spec.scheduler_kwargs == {"patience": 4}

    def test_json_round_trip_equality(self):
        spec = ScenarioSpec(
            problem="teams",
            family="erdos_renyi",
            size=9,
            seed=7,
            team_size=3,
            scheduler="avoider",
            scheduler_params={"patience": 16},
            max_traversals=123_456,
            name="round-trip",
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_with_labels_and_starts(self):
        spec = ScenarioSpec(labels=(5, 12), starts=(1, 4), token_node=2)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_with_team_and_token_extensions(self):
        spec = ScenarioSpec(
            problem="teams",
            labels=(3, 5, 9),
            starts=(0, 2, 4),
            values=("a", {"k": 1}, [1, 2]),
            dormant=(1, 2),
            problem_params={"variant": "x"},
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        token_spec = ScenarioSpec(problem="esst", token_edge=(3, 1), token_fraction="2/6")
        assert ScenarioSpec.from_json(token_spec.to_json()) == token_spec

    def test_token_edge_and_fraction_are_normalised(self):
        spec = ScenarioSpec(problem="esst", token_edge=(3, 1), token_fraction="2/6")
        assert spec.token_edge == (1, 3)
        assert spec.token_fraction == "1/3"

    def test_token_placement_validation(self):
        with pytest.raises(ReproError):
            ScenarioSpec(token_node=1, token_edge=(0, 1)).validate()
        with pytest.raises(ReproError):
            ScenarioSpec(token_fraction="1/2").validate()
        with pytest.raises(ReproError):
            ScenarioSpec(token_edge=(2, 2)).validate()
        with pytest.raises(ReproError):
            ScenarioSpec(token_edge=(0, 1), token_fraction="3/2").validate()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ReproError):
            ScenarioSpec.from_dict({"problem": "rendezvous", "turbo": True})

    def test_non_object_json_rejected(self):
        with pytest.raises(ReproError):
            ScenarioSpec.from_json("[1, 2, 3]")

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ReproError):
            ScenarioSpec(problem="chess").validate()
        with pytest.raises(ReproError):
            ScenarioSpec(family="moebius").validate()
        with pytest.raises(ReproError):
            ScenarioSpec(scheduler="chaotic").validate()
        with pytest.raises(ReproError):
            ScenarioSpec(on_cost_limit="explode").validate()

    def test_specs_are_picklable_and_hashable(self):
        spec = ScenarioSpec(scheduler_params={"patience": 8})
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(spec.replace())

    def test_replace_returns_updated_copy(self):
        spec = ScenarioSpec(size=6)
        bigger = spec.replace(size=12)
        assert spec.size == 6 and bigger.size == 12


class TestMemoisedKey:
    """key() hashes once per instance and is invisible everywhere else."""

    SPEC = ScenarioSpec(
        problem="teams", size=7, seed=3, team_size=3, scheduler_params={"patience": 4}
    )

    def test_key_is_computed_once_and_equals_spec_key(self, monkeypatch):
        from repro.runtime import spec as spec_module

        spec = ScenarioSpec(size=9, seed=5)
        calls = []
        original = spec_module.spec_key

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(spec_module, "spec_key", counting)
        assert spec.key() == spec.key() == original(spec)
        assert calls == [spec]

    def test_key_survives_a_pickle_round_trip(self):
        spec = ScenarioSpec(**self.SPEC.to_dict())
        spec.key()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.key() == spec_key(clone) == spec.key()

    def test_replace_and_dataclasses_replace_hash_afresh(self):
        spec = ScenarioSpec(**self.SPEC.to_dict())
        spec.key()
        for changed in (spec.replace(seed=4), dataclasses.replace(spec, seed=4)):
            assert changed.key() == spec_key(changed) != spec.key()
        assert spec.replace(name="label").key() == spec.key()

    def test_memo_does_not_leak_into_equality_hash_or_serialisation(self):
        fresh = ScenarioSpec(**self.SPEC.to_dict())
        keyed = ScenarioSpec(**self.SPEC.to_dict())
        before = (keyed.to_dict(), keyed.to_json(), hash(keyed))
        keyed.key()
        assert keyed == fresh and hash(keyed) == hash(fresh)
        assert (keyed.to_dict(), keyed.to_json(), hash(keyed)) == before
        assert "_key" not in keyed.to_dict() and "_key" not in keyed.to_json()
        assert ScenarioSpec.from_json(keyed.to_json()).key() == keyed.key()


class TestSweepSpec:
    def test_grid_enumeration_order(self):
        sweep = SweepSpec(
            problems=("rendezvous", "baseline"),
            families=("ring",),
            sizes=(4, 6),
            seeds=(0, 1),
            schedulers=("round_robin",),
        )
        cells = list(sweep.cells())
        assert len(cells) == len(sweep) == 8
        # outermost-first: family, size, seed, ..., problem (innermost).
        assert [(c.size, c.seed, c.problem) for c in cells[:4]] == [
            (4, 0, "rendezvous"),
            (4, 0, "baseline"),
            (4, 1, "rendezvous"),
            (4, 1, "baseline"),
        ]

    def test_every_cell_carries_its_own_seed(self):
        sweep = SweepSpec(seeds=(0, 1, 2))
        assert [cell.seed for cell in sweep.cells()] == [0, 1, 2]

    def test_json_round_trip_equality(self):
        sweep = SweepSpec(
            problems=("rendezvous",),
            families=("ring", "erdos_renyi"),
            sizes=(4, 8, 12),
            seeds=(0, 1, 2),
            schedulers=("round_robin", "avoider"),
            label_sets=((6, 11), (1, 2)),
            scheduler_param_sets=({"patience": 4}, {"patience": 64}),
            team_sizes=(None, 3),
            max_traversals=777,
            name="grid",
        )
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_unknown_fields_rejected(self):
        with pytest.raises(ReproError):
            SweepSpec.from_dict({"sizes": [4], "warp": 9})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("label_sets", [6, 11], "SweepSpec field 'label_sets' entry 6: "),
            ("team_sizes", ["x"], "SweepSpec field 'team_sizes' entry 'x': "),
            ("sizes", ["a"], "SweepSpec field 'sizes' entry 'a': "),
        ],
        ids=["label_sets", "team_sizes", "sizes"],
    )
    def test_malformed_entry_names_its_field(self, field, value, message):
        with pytest.raises(ReproError) as error:
            SweepSpec.from_dict({field: value})
        assert str(error.value).startswith(message)

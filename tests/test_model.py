import json
import math

import numpy as np
import pytest

from conftest import micro_config, random_molecule
from demol import autodiff as ad
from demol.autodiff import Tape, TapeParams, backward
from demol.errors import MissingTargetError, ShapeError
from demol.fixtures import benzene_skeleton, water
from demol.model import Model, ModelConfig
from demol.molecule import Molecule, molecule_from_symbols
from demol.rng import RandomStream


def permuted(mol, perm):
    return molecule_from_symbols(
        [mol.atoms[p].element.symbol for p in perm],
        mol.positions[perm],
        target=mol.target,
    )


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(d_a=10, d_b=8, n_heads=4)

    def test_mask_ratio_range(self):
        with pytest.raises(ValueError):
            micro_config(mask_ratio=1.0)

    def test_round_trip_dict(self):
        cfg = micro_config(loss_weights=(1, 0, 2, 0.5), cross_order="bond_first")
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError):
            micro_config(elements=("H", "Xx"))


class TestEmbeddings:
    def test_identical_atoms_get_identical_rows(self, micro_model):
        mol = molecule_from_symbols(["H", "H"], [[0, 0, 0], [0.7, 0, 0]])
        prep = micro_model.prepare_molecule(mol)
        fwd = micro_model.forward_features(prep)
        del fwd
        table = ad.concat_rows(
            [
                ad.constant(micro_model.params["embed.atom"]),
                ad.constant(micro_model.params["embed.mask_token"]),
            ]
        )
        h0 = ad.gather_rows(table, prep.feature_ids)
        assert (h0.value[0] == h0.value[1]).all()

    def test_zero_tables_give_zero_layer0(self, micro_model):
        micro_model.params["embed.atom"][:] = 0.0
        micro_model.params["embed.bond_type"][:] = 0.0
        micro_model.params["embed.bond_length"][:] = 0.0
        cfg = micro_model.config
        zero_cfg = ModelConfig(**{**cfg.to_dict(), "n_layers": 0})
        model = Model(zero_cfg, params=micro_model.params)
        fwd = model.forward(water())
        assert fwd.embeddings.h_atom.value.max() == 0.0
        assert fwd.embeddings.h_bond.value.max() == 0.0

    def test_water_oxygen_row_differs_from_hydrogen(self, micro_model):
        prep = micro_model.prepare_molecule(water())
        table = micro_model.params["embed.atom"]
        h0 = table[prep.feature_ids]
        assert not np.allclose(h0[0], h0[1])
        assert (h0[1] == h0[2]).all()

    def test_feature_id_out_of_range(self, micro_model):
        mol = molecule_from_symbols(["Pt"], [[0, 0, 0]])  # Z=78 beyond H..O vocab
        with pytest.raises(ShapeError, match="feature id 78"):
            micro_model.prepare_molecule(mol)


class TestAtomSelfLayer:
    def test_single_atom_closed_form(self):
        cfg = micro_config(n_layers=1, n_heads=2)
        model = Model(cfg, seed=2)
        mol = molecule_from_symbols(["C"], [[0, 0, 0]])
        fwd = model.forward(mol, collect_attention=True)
        atom_maps = [r for r in fwd.attention if r.kind == "atom_self"]
        assert all(r.weights.shape == (1, 1) and r.weights[0, 0] == 1.0 for r in atom_maps)

        # replicate by hand: weight 1 on itself, heads concatenated, then FFN
        prep = model.prepare_molecule(mol)
        p = model.params
        table = np.vstack([p["embed.atom"], p["embed.mask_token"]])
        h = table[prep.feature_ids]
        heads = [h @ p[f"layer0.atom_self.head{t}.wv"] for t in range(2)]
        combined = np.hstack(heads) @ p["layer0.atom_self.wo"]
        x = h + combined
        hidden = x @ p["layer0.atom_self.ffn.w1"] + p["layer0.atom_self.ffn.b1"]
        hidden = hidden * 0.5 * (1.0 + np.vectorize(math.erf)(hidden / math.sqrt(2)))
        expected = hidden @ p["layer0.atom_self.ffn.w2"] + p["layer0.atom_self.ffn.b2"]

        # extract the model's post-atom-self state by zeroing the later blocks
        # via a one-layer model whose other blocks leave the value observable:
        # simpler: recompute through the public path on a single-atom molecule
        # where bond and cross blocks are empty-to-identity only if M == 0.
        # With M = 0 the bond channel is empty and cross_atom adds zero
        # attention, so h_atom after the layer is FFN_cross(FFN_self(...)).
        cross_in = expected
        heads = [
            np.zeros((1, cfg.d_h)) for _ in range(2)
        ]  # no incident bonds: zero attention output
        combined = np.hstack(heads) @ p["layer0.atom_from_bond.wo"]
        x = cross_in + combined
        hidden = x @ p["layer0.atom_from_bond.ffn.w1"] + p["layer0.atom_from_bond.ffn.b1"]
        hidden = hidden * 0.5 * (1.0 + np.vectorize(math.erf)(hidden / math.sqrt(2)))
        expected_final = (
            hidden @ p["layer0.atom_from_bond.ffn.w2"] + p["layer0.atom_from_bond.ffn.b2"]
        )
        assert np.abs(fwd.embeddings.h_atom.value - expected_final).max() < 1e-12

    def test_all_masked_off_diagonal_attends_self_only(self):
        cfg = micro_config(n_layers=1, mask_cutoff=1e-9)
        model = Model(cfg, seed=4)
        mol = molecule_from_symbols(
            ["C", "C", "C"], [[0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]]
        )
        fwd = model.forward(mol, collect_attention=True)
        for rec in fwd.attention:
            if rec.kind == "atom_self":
                assert np.abs(rec.weights - np.eye(3)).max() < 1e-12

    def test_permutation_equivariance_of_embeddings(self):
        model = Model(micro_config(), seed=6)
        rs = np.random.RandomState(21)
        mol = random_molecule(rs)
        fwd = model.forward(mol)
        perm = rs.permutation(mol.n_atoms)
        fwd_p = model.forward(permuted(mol, perm))
        assert np.abs(
            fwd_p.embeddings.h_atom.value[np.argsort(perm)] - fwd.embeddings.h_atom.value
        ).max() <= 1e-9


class TestBondSelfLayer:
    def test_no_bonds_is_empty_tensor(self, micro_model):
        mol = molecule_from_symbols(["He", "He"], [[0, 0, 0], [4, 0, 0]])
        cfg = micro_model.config
        model = Model(ModelConfig(**{**cfg.to_dict(), "elements": ("H", "He", "O")}), seed=1)
        fwd = model.forward(mol)
        assert fwd.embeddings.h_bond.value.shape == (0, cfg.d_b)
        assert np.isfinite(fwd.prediction.item())

    def test_single_bond_self_weight_one(self):
        model = Model(micro_config(n_layers=1), seed=3)
        mol = molecule_from_symbols(["H", "H"], [[0, 0, 0], [0.7, 0, 0]])
        fwd = model.forward(mol, collect_attention=True)
        for rec in fwd.attention:
            if rec.kind == "bond_self":
                assert rec.weights.shape == (1, 1)
                assert rec.weights[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_benzene_cyclic_relabeling_invariance(self):
        model = Model(micro_config(), seed=8)
        mol = benzene_skeleton()
        base = model.forward(mol)
        rotated = permuted(mol, np.array([1, 2, 3, 4, 5, 0]))
        fwd = model.forward(rotated)
        assert fwd.prediction.item() == pytest.approx(base.prediction.item(), abs=1e-9)


class TestCrossAttention:
    def test_isolated_atom_passthrough(self):
        cfg = micro_config(n_layers=1)
        model = Model(cfg, seed=5)
        mol = molecule_from_symbols(["C", "He"], [[0, 0, 0], [3.0, 0, 0]])
        model2 = Model(
            ModelConfig(**{**cfg.to_dict(), "elements": ("H", "He", "C", "O")}), seed=5
        )
        fwd = model2.forward(mol, collect_attention=True)
        for rec in fwd.attention:
            if rec.kind == "atom_from_bond":
                assert rec.weights.shape == (2, 0)

    def test_single_incident_bond_gets_weight_one(self):
        model = Model(micro_config(n_layers=1), seed=5)
        mol = molecule_from_symbols(["H", "H"], [[0, 0, 0], [0.7, 0, 0]])
        fwd = model.forward(mol, collect_attention=True)
        for rec in fwd.attention:
            if rec.kind == "atom_from_bond":
                assert np.abs(rec.weights - 1.0).max() < 1e-15  # (2, 1) incidence

    def test_water_oxygen_attends_both_bonds(self):
        model = Model(micro_config(n_layers=1), seed=9)
        fwd = model.forward(water(), collect_attention=True)
        for rec in fwd.attention:
            if rec.kind == "atom_from_bond":
                assert rec.weights.shape == (3, 2)
                assert rec.weights[0].sum() == pytest.approx(1.0, abs=1e-12)
                assert (rec.weights[0] > 0).all()

    def test_symmetric_h2_endpoint_weights_are_half(self):
        model = Model(micro_config(n_layers=1), seed=10)
        mol = molecule_from_symbols(["H", "H"], [[0, 0, 0], [0.7, 0, 0]])
        fwd = model.forward(mol, collect_attention=True)
        for rec in fwd.attention:
            if rec.kind == "bond_from_atom":
                assert np.abs(rec.weights - 0.5).max() < 1e-12

    def test_bond_from_atom_rows_sum_to_one(self):
        model = Model(micro_config(n_layers=1), seed=11)
        fwd = model.forward(water(), collect_attention=True)
        for rec in fwd.attention:
            if rec.kind == "bond_from_atom":
                assert np.abs(rec.weights.sum(axis=1) - 1.0).max() < 1e-12

    def test_bias_shifts_weight_monotonically(self):
        model = Model(micro_config(n_layers=1), seed=12)
        prep = model.prepare_molecule(water())
        base = model.forward_features(prep, collect_attention=True)
        w0 = [r for r in base.attention if r.kind == "bond_from_atom"][0].weights
        # push the cross bias toward the oxygen endpoint and compare
        edges = prep.attention["bond_from_atom"].edges
        bias = np.where(edges.cols == 0, 5.0, 0.0)
        P = TapeParams.for_tape(model.params, None)
        biases = model._edge_biases(prep, P)
        biases["bond_from_atom"] = ad.add(biases["bond_from_atom"], ad.constant(bias))
        boosted = model.forward_features(prep, collect_attention=True, biases=biases)
        w1 = [r for r in boosted.attention if r.kind == "bond_from_atom"][0].weights
        assert (w1[:, 0] > w0[:, 0]).all()

    def test_cross_order_flag_changes_result(self):
        base = Model(micro_config(), seed=13)
        swapped = Model(micro_config(cross_order="bond_first"), seed=13)
        parallel = Model(micro_config(parallel_cross=True), seed=13)
        mol = water()
        p0, p1, p2 = (m.predict(mol) for m in (base, swapped, parallel))
        assert p0 != p1 and p0 != p2


class TestForward:
    def test_zero_layers_is_readout_of_means(self):
        model = Model(micro_config(n_layers=0), seed=14)
        mol = water()
        fwd = model.forward(mol)
        p = model.params
        prep = model.prepare_molecule(mol)
        table = np.vstack([p["embed.atom"], p["embed.mask_token"]])
        h_a = table[prep.feature_ids]
        h_b = (
            p["embed.bond_type"][prep.bond_type_ids]
            + p["embed.bond_length"][prep.bucket_ids]
        )
        pooled = np.hstack([h_a.mean(axis=0), h_b.mean(axis=0)])
        expected = pooled @ p["head.readout.w"][:, 0] + p["head.readout.b"][0, 0]
        assert fwd.prediction.item() == pytest.approx(float(expected), abs=1e-12)

    def test_single_atom_is_finite(self, micro_model):
        mol = molecule_from_symbols(["C"], [[0, 0, 0]])
        assert math.isfinite(micro_model.predict(mol))

    def test_deterministic_across_runs(self):
        a = Model(micro_config(), seed=15).predict(water())
        b = Model(micro_config(), seed=15).predict(water())
        assert a == b

    def test_masked_positions_zero_at_every_layer(self):
        model = Model(micro_config(mask_cutoff=2.2), seed=16)
        mol = molecule_from_symbols(
            ["C", "C", "C", "C"],
            [[0, 0, 0], [1.5, 0, 0], [3.0, 0, 0], [4.5, 0, 0]],
        )
        feats = model.featurize(mol)
        assert not feats.masks.atom.all()  # the cutoff really masks something
        fwd = model.forward(mol, collect_attention=True)
        for rec in fwd.attention:
            if rec.kind == "atom_self":
                assert (rec.weights[~feats.masks.atom] == 0.0).all()
            if rec.kind == "bond_self":
                assert (rec.weights[~feats.masks.bond] == 0.0).all()

    def test_torsion_ablation_bitwise(self):
        cfg = micro_config()
        with_t = Model(cfg, seed=17)
        with_t.params["enc.tors.w2"][:] = 0.0
        without_t = Model(micro_config(use_torsion=False), params=with_t.params)
        mol = water()
        assert with_t.predict(mol) == without_t.predict(mol)


class TestLosses:
    def test_loss_prop_zero_and_one(self, micro_model):
        pred = ad.constant([[2.0]])
        assert micro_model.loss_prop(pred, 2.0).item() == 0.0
        assert micro_model.loss_prop(pred, 3.0).item() == 1.0

    def test_loss_prop_requires_target(self, micro_model):
        with pytest.raises(MissingTargetError):
            micro_model.loss_prop(ad.constant([[0.0]]), None)

    def test_loss_mask_uniform_is_log_vocab(self):
        model = Model(micro_config(), seed=18)
        model.params["head.mask.w"][:] = 0.0
        model.params["head.mask.b"][:] = 0.0
        mol = water()
        k = max(1, round(model.config.mask_ratio * 3))
        loss = model.loss_mask(mol, RandomStream(0))
        assert loss.item() == pytest.approx(k * math.log(model.atom_rows), abs=1e-12)

    def test_loss_mask_confident_goes_to_zero(self):
        model = Model(micro_config(), seed=19)
        # make the head read the mask token row and output the true class
        model.params["head.mask.w"][:] = 0.0
        model.params["head.mask.b"][:] = -50.0
        mol = molecule_from_symbols(["O", "H"], [[0, 0, 0], [0.96, 0, 0]])
        rng = RandomStream(1)
        ids = model.sample_mask_ids(2, RandomStream(1))
        true_class = model.prepare_molecule(mol).feature_ids[ids[0]]
        model.params["head.mask.b"][0, true_class] = 50.0
        loss = model.loss_mask(mol, rng)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_loss_mask_deterministic(self):
        model = Model(micro_config(), seed=20)
        a = model.loss_mask(water(), RandomStream(7)).item()
        b = model.loss_mask(water(), RandomStream(7)).item()
        assert a == b

    def test_loss_coord_zero_noise_zero_head(self):
        model = Model(micro_config(coord_noise_sigma=0.0), seed=21)
        model.params["head.coord.w"][:] = 0.0
        model.params["head.coord.b"][:] = 0.0
        assert model.loss_coord(water(), RandomStream(0)).item() == 0.0

    def test_loss_coord_unit_offset_closed_form(self):
        model = Model(micro_config(coord_noise_sigma=0.0), seed=22)
        model.params["head.coord.w"][:] = 0.0
        model.params["head.coord.b"][:] = 0.0
        model.params["head.coord.b"][0, 0] = 1.0  # every atom displaced by (1, 0, 0)
        loss = model.loss_coord(water(), RandomStream(0))
        assert loss.item() == pytest.approx(3.0, abs=1e-12)

    def test_loss_coord_deterministic(self):
        model = Model(micro_config(), seed=23)
        a = model.loss_coord(water(), RandomStream(9)).item()
        b = model.loss_coord(water(), RandomStream(9)).item()
        assert a == b

    def test_loss_bond_half_probability(self):
        model = Model(micro_config(), seed=24)
        model.params["head.bond.w"][:] = 0.0
        model.params["head.bond.b"][:] = 0.0
        assert model.loss_bond(water()).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_loss_bond_matches_straight_line_bce(self):
        # oracle: independent sigmoid/log evaluation over the candidate pairs
        model = Model(micro_config(), seed=25)
        mol = water()
        prep = model.prepare_molecule(mol)
        fwd = model.forward_features(prep)
        h = fwd.embeddings.h_atom.value
        b_mat = model.params["head.bond.w"]
        bias = model.params["head.bond.b"][0, 0]
        truth = set(prep.feats.bonds.keys())
        total = 0.0
        count = 0
        for i in range(3):
            for j in range(i + 1, 3):
                if not prep.feats.masks.atom[i, j]:
                    continue
                s = 0.5 * (h[i] @ b_mat @ h[j] + h[j] @ b_mat @ h[i]) + bias
                p = 1.0 / (1.0 + math.exp(-s))
                y = 1.0 if (i, j) in truth else 0.0
                total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
                count += 1
        assert model.loss_bond(mol).item() == pytest.approx(total / count, abs=1e-12)

    def test_loss_bond_respects_custom_truth(self):
        from demol.bonds import BondSet

        model = Model(micro_config(), seed=26)
        mol = water()
        default = model.loss_bond(mol).item()
        flipped = model.loss_bond(mol, b_truth=BondSet(())).item()
        assert default != flipped

    def test_total_loss_prop_only(self):
        model = Model(micro_config(loss_weights=(1, 0, 0, 0)), seed=27)
        mol = water(target=0.7)
        total, parts = model.total_loss(mol)
        fwd = model.forward(mol)
        assert total.item() == pytest.approx(
            model.loss_prop(fwd.prediction, 0.7).item(), abs=1e-15
        )
        assert set(parts) == {"prop", "total"}

    def test_total_loss_all_zero_weights(self):
        model = Model(micro_config(loss_weights=(0, 0, 0, 0)), seed=28)
        total, parts = model.total_loss(water(target=1.0))
        assert total.item() == 0.0
        assert parts == {"total": 0.0}

    def test_total_loss_additivity(self):
        model = Model(micro_config(loss_weights=(1, 1, 1, 1)), seed=29)
        mol = water(target=0.4)
        total, _ = model.total_loss(mol, RandomStream(55))
        # individually computed terms share one stream in the same draw order
        rng = RandomStream(55)
        fwd = model.forward(mol)
        parts = [
            model.loss_prop(fwd.prediction, mol.target).item(),
            model.loss_mask(mol, rng).item(),
            model.loss_coord(mol, rng).item(),
            model.loss_bond(mol).item(),
        ]
        assert total.item() == pytest.approx(sum(parts), abs=1e-12)


class TestDumpAttention:
    def test_rows_stochastic_and_shapes(self):
        model = Model(micro_config(), seed=30)
        doc = model.dump_attention(water())
        assert doc["n_atoms"] == 3 and doc["n_bonds"] == 2
        kinds = {(rec["kind"], np.array(rec["weights"]).shape) for rec in doc["maps"]}
        assert ("atom_self", (3, 3)) in kinds
        assert ("bond_self", (2, 2)) in kinds
        assert ("atom_from_bond", (3, 2)) in kinds
        assert ("bond_from_atom", (2, 3)) in kinds
        for rec in doc["maps"]:
            sums = np.array(rec["weights"]).sum(axis=1)
            assert all(abs(s - 1.0) <= 1e-9 or abs(s) <= 1e-12 for s in sums)

    def test_bond_from_atom_zero_off_endpoints(self):
        model = Model(micro_config(), seed=31)
        doc = model.dump_attention(water())
        incidence = model.featurize(water()).incidence
        for rec in doc["maps"]:
            if rec["kind"] == "bond_from_atom":
                w = np.array(rec["weights"])
                assert (w[~incidence.T] == 0.0).all()

    def test_json_roundtrip(self):
        model = Model(micro_config(), seed=32)
        doc = model.dump_attention(water())
        again = json.loads(json.dumps(doc))
        assert again["maps"][0]["weights"] == doc["maps"][0]["weights"]
        assert len(doc["maps"]) == model.config.n_layers * model.config.n_heads * 4


class TestEquivariance:
    def test_prediction_invariance_under_permutation(self):
        model = Model(micro_config(), seed=33)
        rs = np.random.RandomState(77)
        for _ in range(10):
            mol = random_molecule(rs)
            base = model.predict(mol)
            perm = rs.permutation(mol.n_atoms)
            assert model.predict(permuted(mol, perm)) == pytest.approx(base, abs=1e-6)

    def test_prediction_invariance_under_rigid_motion(self):
        model = Model(micro_config(), seed=34)
        rs = np.random.RandomState(88)
        for _ in range(10):
            mol = random_molecule(rs)
            base = model.predict(mol)
            q = np.linalg.qr(rs.normal(size=(3, 3)))[0]
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            moved = molecule_from_symbols(
                [a.element.symbol for a in mol.atoms],
                mol.positions @ q.T + rs.uniform(-10, 10, 3),
                target=mol.target,
            )
            assert model.predict(moved) == pytest.approx(base, abs=1e-9)


class TestBiasPathsAgree:
    def test_tape_biases_match_numpy_bundle(self):
        # the model evaluates encodings on the tape; the export path uses the
        # plain-numpy pipeline; both must produce the same numbers wherever
        # attention can read them (masked entries are never read)
        from demol.encodings import assemble_bundle

        model = Model(micro_config(), seed=40)
        rs = np.random.RandomState(3)
        for _ in range(5):
            mol = random_molecule(rs)
            feats = model.featurize(mol)
            prep = model.prepare(feats)
            P = TapeParams.for_tape(model.params, None)
            biases = model._edge_biases(prep, P)
            bundle = assemble_bundle(
                mol, feats.atom_graph, feats.bond_graph, feats.bond_nodes,
                model.encoders(), feats.masks,
            )
            # every edge is an allowed entry, and every allowed entry an edge
            for kind, dense, allowed in (
                ("atom_self", bundle.phi_atom, feats.masks.atom),
                ("bond_self", bundle.phi_bond, feats.masks.bond),
                ("atom_from_bond", bundle.phi_atom_to_bond, feats.incidence),
                ("bond_from_atom", bundle.phi_bond_to_atom, feats.incidence.T),
            ):
                edges = prep.attention[kind].edges
                assert len(edges) == int(allowed.sum())
                assert allowed[edges.rows, edges.cols].all()
                if len(edges):
                    got = biases[kind].value[:, 0]
                    assert np.abs(got - dense[edges.rows, edges.cols]).max() < 1e-12


class TestGradients:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"pre_norm": True},
            {"parallel_cross": True},
            {"cross_order": "bond_first"},
            {"use_structure_masks": False},
        ],
        ids=["pre_norm", "parallel_cross", "bond_first", "unmasked"],
    )
    def test_flag_variants_pass_sampled_gradient_check(self, overrides):
        # full-coordinate checks live in the acceptance suite; here each
        # alternate code path is spot-checked on sampled coordinates
        cfg = micro_config(
            n_layers=1, d_h=2, ffn_multiplier=1, elements=("H", "O"),
            loss_weights=(0.1, 0.1, 0.1, 0.1), **overrides,
        )
        model = Model(cfg, seed=41)
        mol = water(target=0.15)
        inputs = model.sample_loss_inputs(mol, RandomStream(2))

        tape = Tape()
        loss, _ = model.total_loss_from_inputs(inputs, tape)
        tp = TapeParams.for_tape(model.params, tape)
        analytic = tp.flat_gradients(backward(tape, loss))

        rs = np.random.RandomState(0)
        picked = rs.choice(model.params.size, 160, replace=False)
        step = 1e-4
        offset = 0
        coords = {}
        for name, arr in model.params.items():
            for k in range(arr.size):
                coords[offset + k] = (arr, k)
            offset += arr.size
        for idx in picked:
            arr, k = coords[int(idx)]
            view = arr.reshape(-1)
            orig = view[k]
            view[k] = orig + step
            up, _ = model.total_loss_from_inputs(inputs, None)
            view[k] = orig - step
            down, _ = model.total_loss_from_inputs(inputs, None)
            view[k] = orig
            fd = (up.item() - down.item()) / (2 * step)
            err = abs(analytic[idx] - fd) / max(1e-8, abs(analytic[idx]) + abs(fd))
            assert err <= 1e-4, f"{overrides}: coord {idx} err {err}"

    def test_disconnected_fragments_forward_and_train(self):
        # two fragments inside the 5 A mask: unreachable hop counts must read
        # the sentinel slot and still differentiate
        model = Model(micro_config(loss_weights=(1, 0, 0, 1)), seed=42)
        mol = molecule_from_symbols(
            ["O", "H", "O", "H"],
            [[0, 0, 0], [0.96, 0, 0], [3.5, 0, 0], [4.46, 0, 0]],
            target=0.3,
        )
        feats = model.featurize(mol)
        assert (feats.spd_atom == -1).any()
        assert feats.masks.atom.all()  # everything within 5 Angstrom
        tape = Tape()
        loss, _ = model.total_loss(mol, RandomStream(1), tape)
        tp = TapeParams.for_tape(model.params, tape)
        flat = tp.flat_gradients(backward(tape, loss))
        sl = model.params.slices()["enc.spd_atom.table"]
        table_grad = flat[sl].reshape(-1)
        assert table_grad[model.config.max_spd + 1] != 0.0  # unreachable slot

    def test_total_loss_gradients_flow_to_every_block(self):
        model = Model(micro_config(loss_weights=(1, 1, 1, 1)), seed=35)
        mol = water(target=0.5)
        tape = Tape()
        loss, _ = model.total_loss(mol, RandomStream(5), tape)
        tp = TapeParams.for_tape(model.params, tape)
        flat = tp.flat_gradients(backward(tape, loss))
        slices = model.params.slices()
        for name in (
            "embed.atom",
            "enc.atom.w2",
            "enc.tors.w2",
            "enc.spd_atom.table",
            "layer0.atom_self.head0.wq",
            "layer1.bond_from_atom.ffn.w2",
            "head.readout.w",
            "head.mask.w",
            "head.coord.w",
            "head.bond.w",
        ):
            assert np.abs(flat[slices[name]]).max() > 0.0, name

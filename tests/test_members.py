"""Member models: M independent runs stacked along a leading member axis
(``stack_members``) and trained in lockstep by ``train_task`` must end bit
for bit where each run ends alone; whatever cannot serve members refuses
them with a one-line error."""

import re

import numpy as np
import pytest

import taskgate as tg
from taskgate import (HATLinear, HATMasker, HATPayload, Linear, ReLU, Sequential, Tensor,
                      bench, stack_members)
from taskgate.data import toy_dataset
from taskgate.layers import Module, walk
from taskgate.training import TrainerConfig, evaluate, init_embeddings, train_task

from gated_models import conv_model, flatten, logits

TASKS = 2


def toy_model(rng):
    return bench.build_toy_model(rng, bench.ExperimentConfig(experiment="toy-init",
                                                             tasks=TASKS))


def gated_model(rng):
    # two gated layers, one of them nested, under a shared head
    return Sequential(HATLinear(5, 6, TASKS, "l1", rng), ReLU(),
                      Sequential(HATLinear(6, 6, TASKS, "l2", rng), ReLU()),
                      Linear(6, 2, rng))


SHAPES = {"toy": toy_model, "gated": gated_model}
# (seed, init, schedule) per member: both toy strategies at two seeds
MEMBERS = [(3, "gaussian", "linear"), (3, "ones", "cosine"),
           (4, "gaussian", "linear"), (4, "ones", "cosine")]
STOP_AT = {2: 7}  # member 2 stops itself after its 7th batch


def build(shape, seed, init):
    model = SHAPES[shape](np.random.default_rng([seed, 1]))
    init_embeddings(model.maskers(), init, np.random.default_rng([seed, 2]))
    return model


def config(seed, init, schedule, **changes):
    return TrainerConfig(**{**dict(task_count=TASKS, schedule=schedule, init=init,
                                   lr=0.05, momentum=0.5, reg_lambda=0.075, epochs=4,
                                   batch_size=8, seed=seed), **changes})


def dataset(seed, n=44):  # 5 full batches of 8 and one of 4 per epoch
    return toy_dataset(n, np.random.default_rng([seed, 0]))


def stacked(datasets):
    return np.stack([x for x, _ in datasets]), np.stack([y for _, y in datasets])


def locked(masker):
    """A lock-in test on the first masker's softened mask, unit 0 on and
    the last unit short of fully on, that some gaussian-init members meet
    mid-run and the ones-init members never do."""
    mask = tg.sigmoid_values(10.0 * masker.embedding_rows[0].data)
    return (mask[..., 0] > 0.95) & (mask[..., -1] < 0.99)


def arrays(model):
    """Every parameter and stored mask of a model, in walk order."""
    out = []
    for _, module, _ in walk(model):
        if isinstance(module, HATMasker):
            out += [row.data for row in module.embedding_rows]
            out += [module.stored_task_masks[t] for t in module.completed_tasks()]
        elif isinstance(module, Module):
            out += [p.data for p in module.local_parameters()]
    return out


def train_alone(shape, m):
    seed, init, schedule = MEMBERS[m]
    model = build(shape, seed, init)
    gate = model.maskers()[0]
    log = []

    def on_batch(index, _model):
        lock = bool(locked(gate))
        log.append((index, lock))
        return lock or index == STOP_AT.get(m)

    metrics = train_task(model, dataset(seed), 0, config(seed, init, schedule),
                         on_batch_end=on_batch)
    return model, metrics, log


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_lockstep_group_ends_where_each_member_ends_alone(shape):
    sources = [build(shape, seed, init) for seed, init, _ in MEMBERS]
    group = stack_members(sources)
    assert group.members == len(MEMBERS)
    gate = group.maskers()[0]
    logs = [[] for _ in MEMBERS]
    stopped = np.zeros(len(MEMBERS), dtype=bool)

    def on_batch(index, _model):
        lock = locked(gate)
        for m in np.flatnonzero(~stopped):
            logs[m].append((index, bool(lock[m])))
        stop = lock | np.array([index == STOP_AT.get(m) for m in range(len(MEMBERS))])
        stopped[:] |= stop
        return stop

    metrics = train_task(group, stacked([dataset(seed) for seed, _, _ in MEMBERS]), 0,
                         [config(*member) for member in MEMBERS], on_batch_end=on_batch)
    tests = [dataset(seed + 100, n=30) for seed, _, _ in MEMBERS]
    accuracies = evaluate(group, stacked(tests), 0)

    early = []
    for m in range(len(MEMBERS)):
        alone, alone_metrics, alone_log = train_alone(shape, m)
        # batch counts and lock-in flags, batch by batch
        assert logs[m] == alone_log
        assert metrics[m] == alone_metrics
        pairs = list(zip(arrays(group), arrays(alone)))
        assert len(pairs) == len(arrays(alone)) > 0
        for g, a in pairs:
            assert g[m].dtype == a.dtype and g[m].tobytes() == a.tobytes()
        assert accuracies[m] == evaluate(alone, tests[m], 0)
        early.append(len(alone_log) < 4 * 6)
    # the group mixes members that stop early, by lock-in or by their own
    # rule, with members that run every epoch
    assert early[2] and not all(early)
    assert logs[2][-1] == (STOP_AT[2], False)
    assert any(0 < len(log) < 4 * 6 and log[-1][1] for log in logs)
    # stacking copied the sources' parameters; training left them alone
    for source, (seed, init, _) in zip(sources, MEMBERS):
        fresh = build(shape, seed, init)
        assert all(np.array_equal(a, b) for a, b in zip(arrays(source), arrays(fresh)))


def test_a_second_task_pays_each_members_own_capacity_penalty():
    # after task 0 the ones-init members' stored masks claim every unit
    # (no capacity left, so no penalty when alone) and the gaussian-init
    # members' claim some (a penalty over what is left)
    group = stack_members([build("toy", seed, init) for seed, init, _ in MEMBERS])
    cfgs = [config(*member, epochs=2) for member in MEMBERS]
    for task in (0, 1):
        metrics = train_task(group, stacked([dataset(seed + task) for seed, _, _ in MEMBERS]),
                             task, cfgs)
    free = 1.0 - group.maskers()[0].cumulative_mask
    assert {bool(f.any()) for f in free} == {True, False}
    tests = [dataset(seed + 100, n=30) for seed, _, _ in MEMBERS]
    accuracies = evaluate(group, stacked(tests), 0)  # on task 0's stored masks
    for m, (seed, init, schedule) in enumerate(MEMBERS):
        alone = build("toy", seed, init)
        for task in (0, 1):
            alone_metrics = train_task(alone, dataset(seed + task), task,
                                       config(seed, init, schedule, epochs=2))
        assert metrics[m] == alone_metrics
        assert all(g[m].tobytes() == a.tobytes()
                   for g, a in zip(arrays(group), arrays(alone)))
        assert accuracies[m] == evaluate(alone, tests[m], 0)


def test_a_gated_group_trains_a_second_task_as_each_member_alone():
    # task 1 trains under nullification: per member, the gated layers'
    # claimed entries and the whole shared head stay where task 0 left them
    group = stack_members([build("gated", seed, init) for seed, init, _ in MEMBERS])
    cfgs = [config(*member, epochs=2) for member in MEMBERS]
    x_test, _ = stacked([dataset(seed + 100, n=30) for seed, _, _ in MEMBERS])
    train_task(group, stacked([dataset(seed) for seed, _, _ in MEMBERS]), 0, cfgs)
    task_0 = logits(group, x_test, 0)
    head = [p.data.copy() for p in group.steps[-1].local_parameters()]
    metrics = train_task(group, stacked([dataset(seed + 1) for seed, _, _ in MEMBERS]), 1, cfgs)
    assert logits(group, x_test, 0).tobytes() == task_0.tobytes()
    assert all(np.array_equal(p.data, h) for p, h in zip(group.steps[-1].local_parameters(), head))
    for m, (seed, init, schedule) in enumerate(MEMBERS):
        alone = build("gated", seed, init)
        for task in (0, 1):
            alone_metrics = train_task(alone, dataset(seed + task), task,
                                       config(seed, init, schedule, epochs=2))
        assert metrics[m] == alone_metrics
        assert all(g[m].tobytes() == a.tobytes()
                   for g, a in zip(arrays(group), arrays(alone)))


def run_toy_alone(cfg):
    """``bench.run_toy`` as it ran before lockstep: every run on its own."""
    outcomes = []
    per_epoch = -(-cfg.toy_samples // cfg.toy_batch_size)
    epochs = -(-cfg.batch_cap // per_epoch)
    for repeat in range(cfg.repeats):
        repeat_seed = cfg.seed + repeat
        data = toy_dataset(cfg.toy_samples, np.random.default_rng([repeat_seed, 0]))
        for label, (init_kind, schedule) in bench.toy_strategies(cfg).items():
            model = bench.build_toy_model(np.random.default_rng([repeat_seed, 1]), cfg)
            gate = model.maskers()[0]
            init_embeddings([gate], init_kind, np.random.default_rng([repeat_seed, 2]))
            trainer = TrainerConfig(
                task_count=cfg.tasks, s_max=cfg.s_max, schedule=schedule,
                init=init_kind, lr=cfg.lr, momentum=cfg.momentum,
                reg_lambda=cfg.reg_lambda, epochs=epochs,
                batch_size=cfg.toy_batch_size, seed=repeat_seed)
            tally = {"batches": cfg.batch_cap, "completed": False}

            def on_batch(index, _model):
                if bench.mask_locked(gate, cfg):
                    tally.update(batches=index, completed=True)
                    return True
                return index >= cfg.batch_cap

            train_task(model, data, 0, trainer, on_batch_end=on_batch)
            outcomes.append(bench.ToyOutcome(repeat, label, tally["batches"],
                                             tally["completed"]))
    return outcomes


@pytest.mark.parametrize("changes", [{}, {"init": "gaussian"}, {"theta_hi": 0.6}])
def test_run_toy_matches_every_run_trained_alone(changes):
    cfg = bench.ExperimentConfig(experiment="toy-init", repeats=3, batch_cap=300,
                                 seed=21, **changes)
    outcomes = bench.run_toy(cfg)
    assert outcomes == run_toy_alone(cfg)
    if not changes:  # some runs lock in before the cap and some do not
        assert {o.completed for o in outcomes} == {True, False}


class TestMemberOps:
    rng = np.random.default_rng(5)

    def test_linear_and_cross_entropy_per_member_bits(self):
        x = Tensor(self.rng.standard_normal((3, 7, 5)), requires_grad=True)
        w = Tensor(self.rng.standard_normal((3, 4, 5)), requires_grad=True)
        b = Tensor(self.rng.standard_normal((3, 4)), requires_grad=True)
        labels = self.rng.integers(0, 4, (3, 7))
        with tg.Tape() as tape:
            loss = tg.softmax_cross_entropy(tg.linear(x, w, b), labels)
            total = tg.reduce_sum(loss)
        tape.backward(total)
        assert loss.shape == (3,)
        for m in range(3):
            xm, wm, bm = (Tensor(t.data[m].copy(), requires_grad=True) for t in (x, w, b))
            with tg.Tape() as tape:
                alone = tg.softmax_cross_entropy(tg.linear(xm, wm, bm), labels[m])
            tape.backward(alone)
            assert loss.data[m].tobytes() == alone.data.tobytes()
            for stacked_grad, t in ((x.grad, xm), (w.grad, wm), (b.grad, bm)):
                assert stacked_grad[m].tobytes() == np.ascontiguousarray(t.grad).tobytes()

    @pytest.mark.parametrize("shapes", [
        ((3, 7, 5), (2, 4, 5), (2, 4)),   # member counts differ
        ((7, 5), (3, 4, 5), (3, 4)),      # unstacked input, member weights
        ((3, 7, 5), (3, 4, 5), (4,)),     # an unstacked bias
    ])
    def test_linear_refuses_mismatched_member_axes(self, shapes):
        x, w, b = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(tg.ShapeError):
            tg.linear(x, w, b)

    def test_cross_entropy_labels_follow_the_member_axis(self):
        with pytest.raises(tg.UsageError, match=r"labels must have shape \(3, 7\)"):
            tg.softmax_cross_entropy(Tensor(np.zeros((3, 7, 4))), np.zeros(7, dtype=int))


def toy_group(members=2):
    return stack_members([build("toy", seed, "ones") for seed in range(members)])


def group_data(members=2, n=16):
    return stacked([dataset(seed, n=n) for seed in range(members)])


def group_configs(members=2, **changes):
    return [config(seed, "ones", "cosine", epochs=1, **changes) for seed in range(members)]


class TestRefusals:
    @pytest.mark.parametrize("build_model, kind", [
        (lambda rng: Sequential(tg.task_indexed_linear(5, 2, TASKS, "head", rng)), "TaskIndexed"),
        (lambda rng: conv_model(rng, TASKS), "HATConv2d"),
        (lambda rng: Sequential(tg.LayerNorm(5)), "LayerNorm"),
        (lambda rng: Sequential(HATMasker(5, TASKS, "m"), flatten), "function"),
    ])
    def test_modules_without_a_member_form(self, build_model, kind):
        models = [build_model(np.random.default_rng(i)) for i in range(2)]
        with pytest.raises(tg.UsageError, match="has no member form"):
            stack_members(models)

    def test_evaluate_refuses_labels_outside_the_head(self):
        x, y = group_data()
        y[1, 3] = 2  # member 1's head has classes 0 and 1
        with pytest.raises(tg.UsageError, match=r"labels must lie in \[0, 2\), "
                                                r"got range \[0, 2\]") as err:
            evaluate(toy_group(), (x, y), 0)
        assert "\n" not in str(err.value)

    def test_models_that_differ(self):
        rng = np.random.default_rng(6)
        cfg = bench.ExperimentConfig(experiment="toy-init", tasks=TASKS)
        narrow = bench.build_toy_model(rng, bench.ExperimentConfig(
            experiment="toy-init", tasks=TASKS, toy_hidden=4))
        for other in (gated_model(rng), narrow, Sequential(HATMasker(5, 3, "gate"))):
            with pytest.raises(tg.ShapeError, match="members"):
                stack_members([bench.build_toy_model(rng, cfg), other])
        done = toy_model(rng)
        done.maskers()[0].finalize_task(1)
        with pytest.raises(tg.ShapeError, match="completed tasks"):
            stack_members([toy_model(rng), done])
        for bad in ([], [toy_model(rng), "model"], [toy_group(), toy_group()]):
            with pytest.raises(tg.UsageError):
                stack_members(bad)

    def test_a_model_mixing_members_and_unstacked_modules(self):
        group = toy_group()
        with pytest.raises(tg.ShapeError, match="one member count"):
            Sequential(group, Linear(2, 2, np.random.default_rng(7)))

    def test_checkpoint_and_forget(self, tmp_path):
        group = toy_group()
        train_task(group, group_data(), 0, group_configs())
        for call in (lambda: tg.model_state(group),
                     lambda: tg.load_model_state(group, {}),
                     lambda: tg.forget_task(group, 0)):
            with pytest.raises(tg.UsageError, match="serves unstacked models"):
                call()

    @pytest.mark.parametrize("cfg", [
        lambda: config(0, "ones", "cosine"),                      # one config
        lambda: group_configs(3),                                 # too many
        lambda: group_configs()[:1] + group_configs(lr=0.1)[1:],  # lr differs
    ])
    def test_member_configs(self, cfg):
        with pytest.raises(tg.UsageError):
            train_task(toy_group(), group_data(), 0, cfg())

    def test_an_unstacked_model_takes_one_config(self):
        with pytest.raises(tg.UsageError, match="one TrainerConfig"):
            train_task(toy_model(np.random.default_rng(8)), dataset(0), 0, group_configs())

    def test_member_datasets(self):
        x, y = group_data()
        for bad in ((x[:1], y[:1]), (x[0], y[0]), (x, y[:, :5])):
            with pytest.raises(tg.ShapeError):
                train_task(toy_group(), bad, 0, group_configs())

    def test_on_batch_end_returns_one_flag_per_member(self):
        with pytest.raises(tg.UsageError, match="a bool or 2 of them"):
            train_task(toy_group(), group_data(), 0, group_configs(),
                       on_batch_end=lambda i, m: [True, False, True])

    @pytest.mark.parametrize("stop, got", [
        ([1, 0], "shape (2,) of dtype int64"),
        (np.array([0.5, 0.0]), "shape (2,) of dtype float64"),
        ("True", "shape () of dtype <U4")])
    def test_on_batch_end_returns_bools_per_member(self, stop, got):
        with pytest.raises(tg.UsageError, match=re.escape(
                f"on_batch_end must return a bool or 2 of them, got {got}")) as err:
            train_task(toy_group(), group_data(), 0, group_configs(),
                       on_batch_end=lambda i, m: stop)
        assert "\n" not in str(err.value)

    def test_a_live_members_non_finite_loss_refuses_the_batch(self):
        group = toy_group()
        head = group.steps[-1]
        head.bias.data[1, 0] = np.nan  # member 1's logits, and so its loss
        before = [a.tobytes() for a in arrays(group)]
        with pytest.raises(tg.StateError, match="member 1's loss of epoch 0 batch 1"):
            train_task(group, group_data(), 0, group_configs())
        assert [a.tobytes() for a in arrays(group)] == before

        # a member that has stopped no longer counts
        group = toy_group()

        def stop_member_1(index, _model):
            group.steps[-1].bias.data[1, 0] = np.nan
            return np.array([False, True])

        metrics = train_task(group, group_data(), 0, group_configs(),
                             on_batch_end=stop_member_1)
        assert [len(runs) for runs in metrics] == [1, 1]

    def test_a_live_members_non_finite_embedding_gradient_refuses_the_batch(self):
        # a NaN in member 1's l1 output reaches no loss past relu, but the
        # gate's backward writes it into member 1's task-0 rows
        def gated_group():
            group = stack_members([build("gated", seed, "ones") for seed in range(2)])
            return group, group.steps[0].weight

        group, weight = gated_group()
        weight.data[1, 0, 0] = np.nan
        before = [a.tobytes() for a in arrays(group)]
        with np.errstate(invalid="ignore"), pytest.raises(
                tg.StateError, match="member 1's gradient of task 0's embedding rows "
                                     "in epoch 0 batch 1 is not finite") as err:
            train_task(group, group_data(), 0, group_configs())
        assert "\n" not in str(err.value)
        assert [a.tobytes() for a in arrays(group)] == before

        # a member that has stopped no longer counts
        group, weight = gated_group()

        def stop_member_1(index, _model):
            weight.data[1, 0, 0] = np.nan
            return np.array([False, True])

        with np.errstate(invalid="ignore"):
            metrics = train_task(group, group_data(), 0, group_configs(),
                                 on_batch_end=stop_member_1)
        assert [len(runs) for runs in metrics] == [1, 1]

    def test_finite_member_losses_whose_sum_overflows_train_on(self):
        # each member's one-sample loss is about 1.2e308, finite; their sum
        # is inf, which alone must refuse nothing
        def wrong_by_far(bias, label):
            bias[:] = 6e307
            bias[label] = -6e307

        x, y = group_data(n=1)
        cfgs = group_configs(batch_size=1)
        group = toy_group()
        for m in range(2):
            wrong_by_far(group.steps[-1].bias.data[m], y[m, 0])
        with np.errstate(over="ignore"):  # the summed objective is inf
            metrics = train_task(group, (x, y), 0, cfgs)
        losses = [runs[0].loss for runs in metrics]
        assert all(np.isfinite(losses)) and sum(losses) == np.inf
        for m, cfg in enumerate(cfgs):  # as each member trains alone
            alone = build("toy", m, "ones")
            wrong_by_far(alone.steps[-1].bias.data, y[m, 0])
            assert train_task(alone, (x[m], y[m]), 0, cfg) == metrics[m]

    def test_member_mask_scales(self):
        masker = toy_group().maskers()[0]
        data = Tensor(np.ones((2, 3, 5)))
        for scale in (np.array([[1.0], [-1.0]]), np.array([[np.inf], [1.0]]),
                      np.array([1.0, 2.0]), [[1.0], [2.0]], "1",
                      1.0, np.float64(2.0), 3):  # one scale for every member
            with pytest.raises(tg.UsageError, match="for each of 2 members") as err:
                masker.apply(HATPayload(data, task=0, scale=scale))
            assert "\n" not in str(err.value)
        with pytest.raises(tg.ShapeError, match="needs \\[2,B,F\\] data"):
            masker.apply(HATPayload(Tensor(np.ones((3, 5))), task=0, scale=1.0))

"""Golden pins of the learner's batch, portfolio, and failure paths.

Every trajectory here is cold-started through
:func:`repro.core.service.build_learner` on the 120-job ``small_dataset``
fixture at seed-tree position ``(base_seed=5, traj_index=0)``, and its
selected rows, per-record fidelities, failure flags, cumulative cost, and
test RMSE curve are pinned.  The cases cover what no other test pins
across versions:

- :class:`PortfolioPolicy` at F=1/B=4, unbudgeted and under a 0.5
  node-hour round budget (with frozen-theta refactor rounds);
- an F=2/B=4 portfolio under a 0.5 node-hour round budget;
- sequential RGMA under acquisition faults for each ``on_failure``
  policy.

Selections, fidelities, and cumulative costs are exact (the costs are
sums of dataset entries in pick order); RMSE curves are compared to
1e-9 relative.  A diff here means the AL loop's selections, refit
cadence, or failure bookkeeping changed.
"""

import functools

import numpy as np
import pytest

from repro.core import ALConfig, CampaignSpec, PortfolioPolicy, RGMA
from repro.core.service import build_learner
from repro.faults import AcquisitionFaultModel

FAULTS = AcquisitionFaultModel(crash_probability=0.2, censor_probability=0.2)

CASES = {
    "portfolio_f1_b4": (PortfolioPolicy, ALConfig(max_iterations=16, batch_size=4)),
    "portfolio_f1_b4_budget": (
        PortfolioPolicy,
        ALConfig(
            max_iterations=16,
            batch_size=4,
            round_budget_node_hours=0.5,
            hyper_refit_interval=3,
        ),
    ),
    "portfolio_f2_b4_budget": (
        PortfolioPolicy,
        ALConfig(
            max_iterations=30,
            num_fidelities=2,
            batch_size=4,
            round_budget_node_hours=0.5,
        ),
    ),
    **{
        f"rgma_faults_{mode}": (
            RGMA,
            ALConfig(max_iterations=20, acquisition_faults=FAULTS, on_failure=mode),
        )
        for mode in ("drop", "next_best", "impute")
    },
}

GOLDEN = {
    "portfolio_f1_b4": dict(
        selected=[
            110, 101, 6, 118, 106, 115, 37, 24, 48, 78, 93, 47, 77, 32, 10, 29
        ],
        fidelity=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        failed=[],
        censored=[],
        cumulative_cost=[
            0.009096680279753829, 0.02784674546932045, 0.03493365937384405,
            0.04189979735546115, 0.08066458423040737, 0.30041465673127987,
            0.3076190230599193, 0.3213798217792119, 0.3467667443521228,
            0.4183486743395226, 0.42753580787467277, 0.47787183031886193,
            0.5895788196166315, 0.5965861316296538, 0.6280331536314411,
            0.6539717876754608
        ],
        rmse_cost=[
            2.8297633731242935, 2.8297633731242935, 2.8297633731242935,
            2.8297633731242935, 2.823682746584185, 2.823682746584185,
            2.823682746584185, 2.823682746584185, 2.860479095797681,
            2.860479095797681, 2.860479095797681, 2.860479095797681,
            2.7265890921808813, 2.7265890921808813, 2.7265890921808813,
            2.7265890921808813
        ],
        stop="max_iterations",
    ),
    "portfolio_f1_b4_budget": dict(
        selected=[
            110, 101, 6, 118, 106, 115, 37, 24, 48, 78, 93, 47, 66, 32, 10, 29
        ],
        fidelity=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        failed=[],
        censored=[],
        cumulative_cost=[
            0.009096680279753829, 0.02784674546932045, 0.03493365937384405,
            0.04189979735546115, 0.08066458423040737, 0.30041465673127987,
            0.3076190230599193, 0.3213798217792119, 0.3467667443521228,
            0.4183486743395226, 0.42753580787467277, 0.47787183031886193,
            0.6252526099177518, 0.6322599219307741, 0.6637069439325614,
            0.6896455779765811
        ],
        rmse_cost=[
            2.8297633731242935, 2.8297633731242935, 2.8297633731242935,
            2.8297633731242935, 2.874337906014346, 2.874337906014346,
            2.874337906014346, 2.874337906014346, 2.849879968847799,
            2.849879968847799, 2.849879968847799, 2.849879968847799,
            2.9559820384111757, 2.9559820384111757, 2.9559820384111757,
            2.9559820384111757
        ],
        stop="max_iterations",
    ),
    "portfolio_f2_b4_budget": dict(
        selected=[
            110, 106, 77, 65, 14, 73, 37, 21, 47, 101, 84, 24, 23, 96, 6, 118,
            101, 29, 13, 20, 93, 61, 84, 11, 113, 32, 52, 9, 38, 92, 22, 24
        ],
        fidelity=[
            0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0,
            1, 0, 0, 0, 0, 0, 0, 0, 0, 1
        ],
        failed=[],
        censored=[],
        cumulative_cost=[
            0.00269415564941988, 0.007948942372808208, 0.032342591373768714,
            0.04933438944056238, 0.11118896087863817, 0.13129209839636707,
            0.1384964647250065, 0.1448077089252338, 0.16081062019443632,
            0.164620976253482, 0.17029600089644206, 0.17438546677508474,
            0.17827961354612024, 0.18084152113771626, 0.18792843504223986,
            0.19051531510988232, 0.20926538029944894, 0.22068184530257556,
            0.22866061387303474, 0.23334058542626898, 0.24252771896141917,
            0.2576379459198882, 0.2870273457199982, 0.292594973448141,
            0.3049573473851059, 0.30779022192836947, 0.31459895953498335,
            0.3273848332299343, 0.4078083027929556, 0.5373443711057616,
            0.5484119023154973, 0.5621727010347899
        ],
        rmse_cost=[
            2.769947304758613, 2.769947304758613, 2.769947304758613,
            2.769947304758613, 2.797590670758271, 2.797590670758271,
            2.797590670758271, 2.797590670758271, 2.884494176092094,
            2.884494176092094, 2.884494176092094, 2.884494176092094,
            2.8722543507377774, 2.8722543507377774, 2.8722543507377774,
            2.8722543507377774, 2.8323737537404132, 2.8323737537404132,
            2.8323737537404132, 2.8323737537404132, 2.8881173508213562,
            2.8881173508213562, 2.8881173508213562, 2.8881173508213562,
            2.881769901629233, 2.881769901629233, 2.881769901629233,
            2.881769901629233, 2.75245416292598, 2.75245416292598,
            2.75245416292598, 2.75245416292598
        ],
        stop="max_iterations",
    ),
    "rgma_faults_drop": dict(
        selected=[
            110, 96, 37, 6, 101, 32, 118, 93, 52, 45, 77, 41, 48, 84, 73, 47,
            60, 11, 24, 23
        ],
        fidelity=[
            -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            -1, -1, -1
        ],
        failed=[10, 13, 18],
        censored=[11, 19],
        cumulative_cost=[
            0.009096680279753829, 0.03408536883204142, 0.04128973516068086,
            0.04837664906520446, 0.06712671425477108, 0.07413402626779336,
            0.08110016424941047, 0.09028729778456066, 0.1449693267042577,
            5.051541903679965, 5.163248892977735, 5.395185285753263,
            5.420572208326174, 5.4499616081262845, 5.470064745644013,
            5.520400768088202, 5.579444806569268, 5.594825528341594,
            5.608586327060887, 5.625112655732214
        ],
        rmse_cost=[
            2.853038460260613, 2.6514613802617615, 2.7428012173753227,
            2.717052703144885, 3.080917378467791, 3.068374008428766,
            3.0888608956474544, 3.0957576434007894, 3.0387436304832507,
            2.8843188524018375, 2.8843188524018375, 2.872649870801178,
            2.3530803369198177, 2.3530803369198177, 2.4244335394546286,
            2.4309793755210403, 2.387835233641603, 2.2818738165035697,
            2.2818738165035697, 2.2525953404739725
        ],
        stop="max_iterations",
    ),
    "rgma_faults_next_best": dict(
        selected=[
            110, 96, 37, 6, 101, 32, 118, 93, 52, 45, 77, 41, 48, 84, 73, 47,
            60, 11, 24, 23, 13, 99, 113
        ],
        fidelity=[
            -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            -1, -1, -1, -1, -1, -1
        ],
        failed=[10, 13, 18],
        censored=[11, 19],
        cumulative_cost=[
            0.009096680279753829, 0.03408536883204142, 0.04128973516068086,
            0.04837664906520446, 0.06712671425477108, 0.07413402626779336,
            0.08110016424941047, 0.09028729778456066, 0.1449693267042577,
            5.051541903679965, 5.163248892977735, 5.395185285753263,
            5.420572208326174, 5.4499616081262845, 5.470064745644013,
            5.520400768088202, 5.579444806569268, 5.594825528341594,
            5.608586327060887, 5.625112655732214, 5.837273494523707,
            7.666272262741212, 8.5490759674343
        ],
        rmse_cost=[
            2.853038460260613, 2.6514613802617615, 2.7428012173753227,
            2.717052703144885, 3.080917378467791, 3.068374008428766,
            3.0888608956474544, 3.0957576434007894, 3.0387436304832507,
            2.8843188524018375, 2.8843188524018375, 2.872649870801178,
            2.3530803369198177, 2.3530803369198177, 2.4244335394546286,
            2.4309793755210403, 2.387835233641603, 2.2818738165035697,
            2.2818738165035697, 2.2525953404739725, 1.9440474532952114,
            3.5547195047421343, 1.9902798989044048
        ],
        stop="max_iterations",
    ),
    "rgma_faults_impute": dict(
        selected=[
            110, 96, 37, 6, 101, 32, 118, 93, 52, 45, 77, 41, 48, 84, 73, 47,
            60, 11, 24, 23
        ],
        fidelity=[
            -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            -1, -1, -1
        ],
        failed=[10, 13, 18],
        censored=[11, 19],
        cumulative_cost=[
            0.009096680279753829, 0.03408536883204142, 0.04128973516068086,
            0.04837664906520446, 0.06712671425477108, 0.07413402626779336,
            0.08110016424941047, 0.09028729778456066, 0.1449693267042577,
            5.051541903679965, 5.163248892977735, 5.395185285753263,
            5.420572208326174, 5.4499616081262845, 5.470064745644013,
            5.520400768088202, 5.579444806569268, 5.594825528341594,
            5.608586327060887, 5.625112655732214
        ],
        rmse_cost=[
            2.853038460260613, 2.6514613802617615, 2.7428012173753227,
            2.717052703144885, 3.080917378467791, 3.068374008428766,
            3.0888608956474544, 3.0957576434007894, 3.0387436304832507,
            2.8843188524018375, 2.869440186667561, 2.8585379790382843,
            2.331586844214118, 2.3109351109980105, 2.2677029818457823,
            2.2716860824547385, 2.2258538566012045, 2.1313189540598465,
            2.114764841369291, 2.102602242466215
        ],
        stop="max_iterations",
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, small_dataset):
    policy_cls, cfg = CASES[request.param]
    spec = CampaignSpec(
        campaign_id=request.param,
        policy_factory=functools.partial(
            policy_cls, memory_limit_MB=small_dataset.memory_limit()
        ),
        base_seed=5,
        n_init=20,
        n_test=40,
        config=cfg,
    )
    return GOLDEN[request.param], build_learner(spec, small_dataset).run()


def test_selections_pinned(case):
    golden, traj = case
    assert [r.dataset_index for r in traj.records] == golden["selected"]
    assert traj.stop_reason.value == golden["stop"]


def test_fidelities_pinned(case):
    golden, traj = case
    assert [r.fidelity for r in traj.records] == golden["fidelity"]


def test_failure_flags_pinned(case):
    golden, traj = case
    assert [i for i, r in enumerate(traj.records) if r.failed] == golden["failed"]
    assert [
        i for i, r in enumerate(traj.records) if r.censored
    ] == golden["censored"]


def test_cumulative_cost_pinned(case):
    golden, traj = case
    assert [r.cumulative_cost for r in traj.records] == golden["cumulative_cost"]


def test_rmse_curve_pinned(case):
    golden, traj = case
    np.testing.assert_allclose(traj.rmse_cost, golden["rmse_cost"], rtol=1e-9)

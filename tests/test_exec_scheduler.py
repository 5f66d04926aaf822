"""LPT pre-assignment, the cost model, and the work-stealing board."""

import numpy as np
import pytest

from repro.errors import ExecutorError
from repro.graph.generators import kronecker, star
from repro.gpusim.cluster import schedule_lpt
from repro.exec.scheduler import CostModel, TaskBoard


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=8, seed=9)


class TestCostModel:
    def test_predict_orders_by_degree_sum(self, graph):
        model = CostModel(graph)
        degrees = graph.out_degrees()
        heavy = int(np.argmax(degrees))
        light = int(np.argmin(degrees))
        assert model.predict([heavy]) >= model.predict([light])

    def test_hub_group_costs_more(self):
        g = star(50)
        model = CostModel(g)
        assert model.predict([0]) > model.predict([1])


class TestPolicies:
    """The executor's pre-assignment is the cluster's LPT schedule."""

    def test_lpt_balances_skewed_costs(self):
        costs = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        assignment = schedule_lpt(costs, 2)
        loads = [
            sum(c for c, w in zip(costs, assignment) if w == d)
            for d in range(2)
        ]
        # LPT isolates the heavy task; round-robin would not.
        assert max(loads) / min(loads) < 2.0


class TestTaskBoard:
    def make_board(self):
        # Worker 0 gets tasks 0,1,2; worker 1 gets task 3.
        return TaskBoard([0, 0, 0, 1], [5.0, 3.0, 1.0, 2.0], 2)

    def test_own_deque_served_front_first(self):
        board = self.make_board()
        assert board.next_task(0) == 0
        assert board.next_task(0) == 1
        assert board.steals == 0

    def test_idle_worker_steals_from_tail(self):
        board = self.make_board()
        assert board.next_task(1) == 3  # own work first
        # Worker 1 idle; worker 0 is the richest victim; steal its tail.
        assert board.next_task(1) == 2
        assert board.steals == 1
        assert board.remaining() == 2

    def test_empty_board_returns_none(self):
        board = TaskBoard([], [], 2)
        assert board.next_task(0) is None
        assert board.remaining() == 0

    def test_requeue_goes_to_lightest_worker_front(self):
        board = self.make_board()
        board.next_task(1)  # drain worker 1 -> load 0
        board.requeue(3)
        assert board.next_task(1) == 3

    def test_load_tracks_costs(self):
        board = self.make_board()
        assert board.load(0) == pytest.approx(9.0)
        board.next_task(0)
        assert board.load(0) == pytest.approx(4.0)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ExecutorError):
            TaskBoard([0, 0], [1.0], 2)
        with pytest.raises(ExecutorError):
            TaskBoard([0], [1.0], 0)
        with pytest.raises(ExecutorError):
            TaskBoard([5], [1.0], 2)

//! Candidate sets: the plans the optimizer costs for one query.
//!
//! `Optimizer::plan` runs a dynamic program over the query's table
//! subsets.  For every subset (mask) it enumerates each split into two
//! planned halves that a join condition connects, and `join_plans` costs
//! a hash join and, when nested loops are enabled, a nested-loop join of
//! the halves' best plans.  A learned cost model standing in for the
//! optimizer's own would be asked for every one of those candidates before
//! the optimizer can pick.  So the candidate set of a query is those join
//! candidates plus the plan the optimizer picks, and its size K is what the
//! optimizer enumerates for that query.
//!
//! The optimizer keeps its candidates private, so they are rebuilt here
//! from its public parts, in its enumeration order: a half's best plan is
//! the optimizer's plan of the sub-query over the half's tables, without
//! its aggregate; the join nodes are estimated with the same
//! `PostgresLikeEstimator` and costed with the same `CostModel`.  The
//! cheapest rebuilt candidate of the full mask must be the optimizer's own
//! plan below its aggregate, which checks the rebuild.

use zsdb_cardest::{CardinalityEstimator, PostgresLikeEstimator};
use zsdb_catalog::TableId;
use zsdb_engine::{CostModel, EngineConfig, PhysOperator, PlanNode, QueryRunner};
use zsdb_query::{Aggregate, JoinCondition, Query};
use zsdb_storage::Database;

/// The tables of `query` in `mask`, in query order.
fn tables_of(query: &Query, mask: usize) -> Vec<TableId> {
    query
        .tables
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, t)| *t)
        .collect()
}

/// The sub-query of `query` over the tables in `mask`.
fn subquery(query: &Query, mask: usize) -> Query {
    let tables = tables_of(query, mask);
    Query {
        joins: query
            .joins
            .iter()
            .filter(|j| tables.contains(&j.left.table) && tables.contains(&j.right.table))
            .copied()
            .collect(),
        predicates: query
            .predicates
            .iter()
            .filter(|p| tables.contains(&p.column.table))
            .copied()
            .collect(),
        aggregates: vec![Aggregate::count_star()],
        tables,
    }
}

/// The first join condition connecting the two table subsets, as the
/// optimizer's `connecting_edge` finds it.
fn connecting_edge(query: &Query, left: usize, right: usize) -> Option<JoinCondition> {
    let position = |t: TableId| query.tables.iter().position(|x| *x == t);
    query.joins.iter().copied().find(|join| {
        match (position(join.left.table), position(join.right.table)) {
            (Some(l), Some(r)) => {
                let (l, r) = (1 << l, 1 << r);
                (left & l != 0 && right & r != 0) || (right & l != 0 && left & r != 0)
            }
            _ => false,
        }
    })
}

/// A join node over two children, in the shape `join_plans` builds.
fn join(op: PhysOperator, children: [PlanNode; 2], cardinality: f64, cost: f64) -> PlanNode {
    let width = children[0].output_width + children[1].output_width;
    PlanNode {
        op,
        children: children.into(),
        est_cardinality: cardinality,
        est_cost: cost,
        output_width: width,
    }
}

/// The query's candidate set: the plan the optimizer picks, then every
/// join candidate it costs, mask by mask.  `None` when the rebuilt
/// candidates do not reproduce the optimizer's pick.
pub fn candidates(db: &Database, query: &Query) -> Option<Vec<PlanNode>> {
    let config = EngineConfig::default();
    let runner = QueryRunner::new(db, config.clone(), Default::default());
    let estimator = PostgresLikeEstimator::new(db.catalog().clone());
    let cost = CostModel::new(config.clone());
    let picked = runner.plan(query);
    let n = query.tables.len();
    let full = (1usize << n) - 1;
    // best[mask]: the optimizer's best plan of the tables in `mask`, for
    // the masks its dynamic program can plan.
    let mut best: Vec<Option<PlanNode>> = vec![None; 1 << n];
    let mut cheapest_full: Option<PlanNode> = None;
    let mut plans = vec![picked.clone()];
    for mask in 1..=full {
        let mut joinable = false;
        let mut left = (mask - 1) & mask;
        while left > 0 {
            let right = mask ^ left;
            if let (true, Some(l), Some(r)) = (left >= right, &best[left], &best[right]) {
                if let Some(edge) = connecting_edge(query, left, right) {
                    joinable = true;
                    let (l, r) = (l.clone(), r.clone());
                    let out = estimator
                        .subquery_cardinality(query, &tables_of(query, mask))
                        .max(1.0);
                    let (left_key, right_key) = if l.scanned_tables().contains(&edge.left.table) {
                        (edge.left, edge.right)
                    } else {
                        (edge.right, edge.left)
                    };
                    let (build, probe, build_key, probe_key) =
                        if l.est_cardinality <= r.est_cardinality {
                            (l.clone(), r.clone(), left_key, right_key)
                        } else {
                            (r.clone(), l.clone(), right_key, left_key)
                        };
                    let hash_cost = build.est_cost
                        + probe.est_cost
                        + cost.hash_join(build.est_cardinality, probe.est_cardinality, out);
                    let hash = join(
                        PhysOperator::HashJoin {
                            build_key,
                            probe_key,
                        },
                        [build, probe],
                        out,
                        hash_cost,
                    );
                    let mut choice = hash.clone();
                    plans.push(hash);
                    if config.enable_nested_loop {
                        let (outer, inner, outer_key, inner_key) =
                            if l.est_cardinality >= r.est_cardinality {
                                (l, r, left_key, right_key)
                            } else {
                                (r, l, right_key, left_key)
                            };
                        let nl_cost = outer.est_cost
                            + inner.est_cost
                            + cost.nested_loop_join(
                                outer.est_cardinality,
                                inner.est_cardinality,
                                out,
                            );
                        let nested = join(
                            PhysOperator::NestedLoopJoin {
                                outer_key,
                                inner_key,
                            },
                            [outer, inner],
                            out,
                            nl_cost,
                        );
                        if nl_cost < choice.est_cost {
                            choice = nested.clone();
                        }
                        plans.push(nested);
                    }
                    if mask == full
                        && cheapest_full
                            .as_ref()
                            .is_none_or(|b| choice.est_cost < b.est_cost)
                    {
                        cheapest_full = Some(choice);
                    }
                }
            }
            left = (left - 1) & mask;
        }
        if mask.count_ones() == 1 || joinable {
            let sub = if mask == full {
                picked.clone()
            } else {
                runner.plan(&subquery(query, mask))
            };
            best[mask] = sub.children.into_iter().next();
        }
    }
    // A single-table query has no join candidates; otherwise the cheapest
    // full-mask candidate is the optimizer's pick below its aggregate.
    let reproduced = match &cheapest_full {
        None => n == 1,
        Some(plan) => picked.children.first() == Some(plan),
    };
    reproduced.then_some(plans)
}

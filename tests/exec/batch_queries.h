// SELECTs over t(id INT, v INT, tag TEXT) shared by the batch-size
// differential (exec_batch_test) and the per-expression compiled-vs-Eval
// oracle (expr_program_test), which compiles every expression in them.

#ifndef IMON_TESTS_EXEC_BATCH_QUERIES_H_
#define IMON_TESTS_EXEC_BATCH_QUERIES_H_

namespace imon::testing {

inline constexpr const char* kBatchQueries[] = {
    "SELECT count(*) FROM t",
    "SELECT count(*), count(v), sum(v), min(id), max(id) FROM t",
    "SELECT count(*) FROM t WHERE v > 5",
    "SELECT count(*) FROM t WHERE v IS NULL",
    "SELECT count(*) FROM t WHERE v IS NOT NULL AND tag = 'even'",
    "SELECT v, count(*) FROM t GROUP BY v ORDER BY v",
    "SELECT tag, sum(v) FROM t GROUP BY tag HAVING sum(v) > 10",
    "SELECT id, v + 1 FROM t WHERE id < 20 ORDER BY id",
    "SELECT count(*) FROM t WHERE v IN (1, 3, NULL)",
    "SELECT count(*) FROM t WHERE v BETWEEN 2 AND 8 AND tag LIKE 'e%'",
    "SELECT count(*) FROM t WHERE NOT (v > 3 OR tag = 'odd')",
};

}  // namespace imon::testing

#endif  // IMON_TESTS_EXEC_BATCH_QUERIES_H_

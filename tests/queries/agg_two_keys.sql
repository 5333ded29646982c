SELECT k, s, COUNT(*), SUM(k), MAX(flag) FROM e1025 GROUP BY k, s

SELECT flag, MIN(s), MAX(s), AVG(k), SUM(k) FROM e1024 GROUP BY flag

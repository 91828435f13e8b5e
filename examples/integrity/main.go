// Integrity: the paper's motivating application — checking general
// integrity constraints (with quantifiers and disjunctions) against a
// database, and reporting the violating tuples with open queries.
//
//	go run ./examples/integrity
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

// constraint pairs a closed formula with the open query that lists its
// violations (the negation's witnesses).
type constraint struct {
	name       string
	check      string
	violations string
}

func main() {
	db := core.NewDB()
	emp := db.MustDefine("emp", "name", "dept")
	dept := db.MustDefine("dept", "id", "head")
	project := db.MustDefine("project", "id", "dept")
	worksOn := db.MustDefine("works_on", "emp", "project")

	for _, row := range [][2]string{{"ann", "cs"}, {"bob", "cs"}, {"eve", "math"}, {"joe", "bio"}} {
		emp.InsertValues(relation.Str(row[0]), relation.Str(row[1]))
	}
	for _, row := range [][2]string{{"cs", "ann"}, {"math", "eve"}} {
		dept.InsertValues(relation.Str(row[0]), relation.Str(row[1]))
	}
	for _, row := range [][2]string{{"p1", "cs"}, {"p2", "math"}} {
		project.InsertValues(relation.Str(row[0]), relation.Str(row[1]))
	}
	for _, row := range [][2]string{{"ann", "p1"}, {"bob", "p1"}, {"eve", "p2"}, {"joe", "p1"}} {
		worksOn.InsertValues(relation.Str(row[0]), relation.Str(row[1]))
	}

	constraints := []constraint{
		{
			name:       "every employee's department exists",
			check:      `forall x, d: emp(x, d) => exists h: dept(d, h)`,
			violations: `{ x, d | emp(x, d) and not exists h: dept(d, h) }`,
		},
		{
			name:       "every department head belongs to the department",
			check:      `forall d, h: dept(d, h) => emp(h, d)`,
			violations: `{ d, h | dept(d, h) and not emp(h, d) }`,
		},
		{
			name:       "everyone works on something or heads a department",
			check:      `forall x, d: emp(x, d) => ((exists p: works_on(x, p)) or exists d2: dept(d2, x))`,
			violations: `{ x | (exists d: emp(x, d)) and not (exists p: works_on(x, p)) and not (exists d2: dept(d2, x)) }`,
		},
		{
			name:       "every project is staffed by a member of its department",
			check:      `forall p, d: project(p, d) => exists x: works_on(x, p) and emp(x, d)`,
			violations: `{ p, d | project(p, d) and not exists x: works_on(x, p) and emp(x, d) }`,
		},
	}

	// Constraint checking is a background-maintenance workload: bound it
	// with a timeout.
	eng := core.NewEngine(db, core.WithTimeout(30*time.Second))
	for _, c := range constraints {
		ok, err := eng.Check(c.check)
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		status := "OK"
		if !ok {
			status = "VIOLATED"
		}
		fmt.Printf("[%-8s] %s\n", status, c.name)
		if !ok {
			res, err := eng.Query(c.violations)
			if err != nil {
				log.Fatalf("listing violations of %q: %v", c.name, err)
			}
			for _, t := range res.Rows.Tuples() {
				fmt.Printf("           violating: %s\n", t)
			}
		}
	}
}

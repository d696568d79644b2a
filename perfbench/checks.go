package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/policy"
)

// checker collects output-check violations and operation errors from
// the workers. A run with any violation is not correct.
type checker struct {
	mu         sync.Mutex
	violations map[string]int
	first      map[string]string
	opErrs     map[string]int
	firstErr   map[string]string
}

func newChecker() *checker {
	return &checker{violations: map[string]int{}, first: map[string]string{},
		opErrs: map[string]int{}, firstErr: map[string]string{}}
}

func (c *checker) fail(check, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations[check]++
	if _, ok := c.first[check]; !ok {
		c.first[check] = fmt.Sprintf(format, args...)
	}
}

func (c *checker) opError(k opKind, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opErrs[k.String()]++
	if _, ok := c.firstErr[k.String()]; !ok {
		c.firstErr[k.String()] = err.Error()
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) == 0
}

// report lists violations and operation errors, one per line.
func (c *checker) report() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k, n := range c.violations {
		out = append(out, fmt.Sprintf("check %s failed %d times, first: %s", k, n, c.first[k]))
	}
	for k, n := range c.opErrs {
		out = append(out, fmt.Sprintf("%d %s ops failed, first: %s", n, k, c.firstErr[k]))
	}
	sort.Strings(out)
	return out
}

// reference is the naive Definition-2 filter: the request is permitted
// iff some stored policy names its class, covers its requester (the
// granted actor or one of its departments) and lists its purpose, and
// then exactly the union of those policies' fields may be released.
func reference(pols []*policy.Policy, r *event.DetailRequest) (map[event.FieldName]bool, bool) {
	allowed := map[event.FieldName]bool{}
	permit := false
	now := time.Now()
	for _, p := range pols {
		if p.Class != r.Class {
			continue
		}
		if p.Actor != r.Requester && !strings.HasPrefix(string(r.Requester), string(p.Actor)+"/") {
			continue
		}
		purpose := false
		for _, s := range p.Purposes {
			purpose = purpose || s == r.Purpose
		}
		if !purpose || (!p.NotBefore.IsZero() && now.Before(p.NotBefore)) || (!p.NotAfter.IsZero() && now.After(p.NotAfter)) {
			continue
		}
		permit = true
		for _, f := range p.Fields {
			allowed[f] = true
		}
	}
	return allowed, permit
}

// detail checks one answered detail request against the reference: the
// decision must agree, and a permitted detail may carry only fields the
// matching policies grant, each with the value the producer persisted.
func (c *checker) detail(pols []*policy.Policy, r *event.DetailRequest, got, persisted *event.Detail) {
	allowed, permit := reference(pols, r)
	if permit != (got != nil) {
		c.fail("decision", "%s for %s on %s: reference permit=%v, service permit=%v",
			r.Requester, r.Purpose, r.Class, permit, got != nil)
		return
	}
	if got == nil {
		return
	}
	for f, v := range got.Fields {
		if v == "" {
			continue // withheld fields travel as empty elements
		}
		if !allowed[f] {
			c.fail("field-outside-policy", "%s received %s of %s", r.Requester, f, r.Class)
		} else if persisted.Fields[f] != v {
			c.fail("detail-value", "%s of %s: got %q, persisted %q", f, r.EventID, v, persisted.Fields[f])
		}
	}
}

// inquiry checks an index inquiry's answer: only the person's redacted
// notifications inside the window. Without concurrent publishes the
// answer must hold exactly the preloaded events in the window; a
// two-phase inquiry must list the event it followed up.
func (c *checker) inquiry(p *plan, o *op, res []*event.Notification, mustHave event.GlobalID) {
	found := false
	for _, n := range res {
		if n.PersonID != o.person || n.OccurredAt.Before(o.from) || n.OccurredAt.After(o.to) || n.SourceID != "" {
			c.fail("inquiry-scope", "inquiry on %s returned %s of %s at %s", o.person, n.ID, n.PersonID, n.OccurredAt)
		}
		found = found || n.ID == mustHave
	}
	if mustHave != "" && !found {
		c.fail("inquiry-missing-event", "inquiry on %s lacks followed event %s", o.person, mustHave)
	}
	if o.follow == nil {
		if want := p.inWindow(o.person, o.from, o.to); len(res) != want {
			c.fail("inquiry-count", "inquiry on %s returned %d notifications, %d preloaded in the window", o.person, len(res), want)
		}
	}
}

// notification checks a delivered notification against its publish: the
// subscribed class, the same subject and producer, a global id, and no
// producer-local id.
func (c *checker) notification(s sub, pub, got *event.Notification) {
	if got.Class != s.class || got.PersonID != pub.PersonID || got.Producer != pub.Producer || got.ID == "" || got.SourceID != "" {
		c.fail("notification", "delivery to %s on %s does not match its publish %s", s.actor, s.class, pub.Trace)
	}
}

// inWindow counts the preloaded events of person in [from, to].
func (p *plan) inWindow(person string, from, to time.Time) int {
	p.byPersonOnce.Do(func() {
		p.byPerson = map[string][]time.Time{}
		for _, n := range p.preN {
			p.byPerson[n.PersonID] = append(p.byPerson[n.PersonID], n.OccurredAt)
		}
	})
	count := 0
	for _, t := range p.byPerson[person] {
		if !t.Before(from) && !t.After(to) {
			count++
		}
	}
	return count
}

// plaintextIDs scans every file under dirs for a generated person id
// ("PRS-" and six digits) in the clear and returns the first hit.
func plaintextIDs(dirs ...string) (string, error) {
	pat := []byte("PRS-")
	var hit string
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || hit != "" {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for off := 0; ; {
				i := bytes.Index(data[off:], pat)
				if i < 0 {
					break
				}
				at := off + i + len(pat)
				if at+6 <= len(data) && allDigits(data[at:at+6]) {
					hit = fmt.Sprintf("%s in %s", data[at-len(pat):at+6], path)
					break
				}
				off = at
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	return hit, nil
}

func allDigits(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/store"
)

// runE10 demonstrates temporal decoupling: details stay retrievable from
// the local cooperation gateway months after publication, across producer
// restarts, with outcomes governed by the policies' validity windows.
func runE10() {
	const events = 500
	dir, err := os.MkdirTemp("", "css-e10-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	now := time.Date(2010, 1, 15, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }

	ctrl, err := core.New(core.Config{DefaultConsent: true, DataDir: dir, Now: clock,
		MasterKey: benchKeyringMaster()})
	if err != nil {
		log.Fatal(err)
	}
	if err := ctrl.RegisterProducer("hospital", "H"); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("family-doctor", "D"); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("caring-coop", "Coop"); err != nil {
		log.Fatal(err)
	}
	gwStore, err := store.Open(dir+"/gw.wal", store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gw, err := gateway.New("hospital", gwStore, ctrl.Catalog())
	if err != nil {
		log.Fatal(err)
	}
	if err := ctrl.AttachGateway("hospital", gw); err != nil {
		log.Fatal(err)
	}
	// Unbounded policy for the doctor; contract-bounded for the coop.
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "hemoglobin"},
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "caring-coop", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeSocialAssistance},
		Fields:   []event.FieldName{"patient-id"},
		NotAfter: time.Date(2010, 12, 31, 23, 59, 59, 0, time.UTC),
	}); err != nil {
		log.Fatal(err)
	}

	gids := make([]event.GlobalID, events)
	for i := range gids {
		src := event.SourceID(fmt.Sprintf("src-%06d", i))
		d := event.NewDetail(schema.ClassBloodTest, src, "hospital").
			Set("patient-id", fmt.Sprintf("PRS-%04d", i)).
			Set("exam-date", "2010-01-15").
			Set("hemoglobin", "13.0")
		if err := gw.Persist(d); err != nil {
			log.Fatal(err)
		}
		gid, err := ctrl.Publish(&event.Notification{
			SourceID: src, Class: schema.ClassBloodTest,
			PersonID: fmt.Sprintf("PRS-%04d", i), Summary: "blood test",
			OccurredAt: now, Producer: "hospital",
		})
		if err != nil {
			log.Fatal(err)
		}
		gids[i] = gid
	}

	// "The source system goes offline": only the gateway store survives.
	// Simulate by restarting the whole producer side (close + reopen).
	gwStore.Close()

	tbl := newTable("request lag", "requester", "success", "denied (contract)")
	for _, lag := range []struct {
		name string
		d    time.Duration
	}{
		{"1 day", 24 * time.Hour},
		{"1 month", 30 * 24 * time.Hour},
		{"6 months", 182 * 24 * time.Hour},
		{"2 years", 730 * 24 * time.Hour},
	} {
		now = time.Date(2010, 1, 15, 9, 0, 0, 0, time.UTC).Add(lag.d)
		// Producer restart at each epoch: reopen the gateway from disk.
		st, err := store.Open(dir+"/gw.wal", store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		gw2, err := gateway.New("hospital", st, ctrl.Catalog())
		if err != nil {
			log.Fatal(err)
		}
		if err := ctrl.AttachGateway("hospital", gw2); err != nil {
			log.Fatal(err)
		}

		for _, who := range []struct {
			actor   event.Actor
			purpose event.Purpose
		}{
			{"family-doctor", event.PurposeHealthcareTreatment},
			{"caring-coop", event.PurposeSocialAssistance},
		} {
			ok, denied := 0, 0
			for _, gid := range gids {
				_, err := ctrl.RequestDetails(&event.DetailRequest{
					Requester: who.actor, Class: schema.ClassBloodTest,
					EventID: gid, Purpose: who.purpose,
				})
				if err != nil {
					denied++
				} else {
					ok++
				}
			}
			tbl.Row(lag.name, who.actor, ok, denied)
		}
		st.Close()
	}
	tbl.Write(os.Stdout)
	ctrl.Close()
	fmt.Println("shape: the doctor retrieves 100% at any lag (gateway persistence survives")
	fmt.Println("producer restarts); the cooperative loses access once its contract expires —")
	fmt.Println("requests months after publication resolve per the policy at request time.")
}

func benchKeyringMaster() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	return key
}

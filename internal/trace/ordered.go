package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunk is the unit the codec moves round its fan-out: a run of records and
// their CSV bytes. Encoding fills buf from recs, decoding fills recs from buf;
// both buffers belong to the chunk and are reused every time it comes round.
type chunk struct {
	done chan struct{} // capacity 1: a worker's "this chunk is processed"

	recs []Record
	buf  []byte
	// header: encoding, buf starts with the header row; decoding, the first
	// row of buf is the header row.
	header bool

	// Decoding only.
	pending bool  // the header row was expected and buf held no row at all
	err     error // what stopped the decode; recs holds the rows before it
	rowErr  bool  // err is about data row len(recs) of this chunk
}

// ordered is the codec's one fan-out, under both directions. A sender takes
// idle chunks, fills them and submits them; GOMAXPROCS workers process
// submitted chunks in parallel; a receiver gets them back strictly in the
// order they were submitted. There are twice as many chunks as workers, which
// is the bound on chunks in flight.
//
// Exactly one goroutine sends (acquire, submit, close) and exactly one
// receives. Once the receiver's deliver has failed, workers skip their work
// and acquire returns nil, so the sender stops; the receiver keeps taking
// chunks back until the sender has closed, which is what lets every goroutine
// exit.
type ordered struct {
	free    chan *chunk // idle; waiting for one is what bounds the chunks in flight
	todo    chan *chunk // submitted, for the workers
	queue   chan *chunk // submitted, in order, for the receiver
	workers sync.WaitGroup
	stopped atomic.Bool
}

// startOrdered starts the workers. Each calls newWorker once, for a process
// function that may keep scratch state of its own, and runs it on every chunk
// it takes.
func startOrdered(newWorker func() (process func(*chunk))) *ordered {
	workers := runtime.GOMAXPROCS(0)
	chunks := 2 * workers
	// Every channel holds all the chunks there are, so only taking one
	// (acquire, the workers' and the receiver's loops) ever blocks.
	o := &ordered{
		free:  make(chan *chunk, chunks),
		todo:  make(chan *chunk, chunks),
		queue: make(chan *chunk, chunks),
	}
	for range chunks {
		o.free <- &chunk{done: make(chan struct{}, 1)}
	}
	o.workers.Add(workers)
	for range workers {
		go func() {
			defer o.workers.Done()
			process := newWorker()
			for c := range o.todo {
				if !o.stopped.Load() {
					process(c)
				}
				c.done <- struct{}{}
			}
		}()
	}
	return o
}

// acquire waits for an idle chunk. It returns nil once the receiver has
// failed: the sender has nothing left to do but close.
func (o *ordered) acquire() *chunk {
	c := <-o.free
	if o.stopped.Load() {
		return nil
	}
	return c
}

// submit hands a filled chunk to the workers and queues it for the receiver.
func (o *ordered) submit(c *chunk) {
	o.queue <- c
	o.todo <- c
}

// close ends the sender's side: the chunks already submitted are still
// processed and received, then the workers exit and receive returns.
func (o *ordered) close() {
	close(o.todo)
	close(o.queue)
}

// receive hands every submitted chunk to deliver, in submission order, until
// deliver fails: the first error is the one returned and no later chunk is
// delivered. However it ends — deliver may also panic, on a caller that
// recovers — it returns only when the sender has closed and every worker is
// gone.
func (o *ordered) receive(deliver func(*chunk) error) error {
	defer func() {
		o.stopped.Store(true)
		for c := range o.queue {
			<-c.done
			o.free <- c
		}
		o.workers.Wait()
	}()
	for c := range o.queue {
		<-c.done
		if err := deliver(c); err != nil {
			return err
		}
		o.free <- c
	}
	return nil
}
